package sorts

import (
	"fmt"

	"repro/internal/ccsas"
	"repro/internal/machine"
)

// PsrsCCSAS runs Parallel Sorting by Regular Sampling under the
// cache-coherent shared address space model: local radix sort, regular
// sampling, a root-side pivot selection published through shared memory
// (processor 0 reads every processor's samples with remote reads, all
// others then read the pivots as shared-read data), binary-search
// partition, a pull-based all-to-all of the partition chunks, and a
// final local multiway merge of the received sorted runs.
func PsrsCCSAS(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keysIn)
	P := m.Procs()
	B := cfg.Buckets()
	world := ccsas.NewWorld(m)

	keyArr := machine.NewArrayBlocked[uint32](m, "pcc.keys", n)
	tmpArr := machine.NewArrayBlocked[uint32](m, "pcc.tmp", n)
	copy(keyArr.Data, keysIn)

	// Every processor publishes up to P regular samples; the per-proc
	// sample count is min(P, partition size), deterministic from the
	// block bounds, so no count exchange is needed.
	sampleArr := machine.NewArrayBlocked[uint32](m, "pcc.samples", P*P)
	pivotArr := machine.NewArrayRoundRobin[uint32](m, "pcc.pivots", max(1, P-1))
	boundArr := machine.NewArrayBlocked[int64](m, "pcc.bounds", P*(P+1))

	scratch := make([]*localScratch, P)
	recvArr := make([]*machine.Array[uint32], P)
	outArr := make([]*machine.Array[uint32], P)
	for i := 0; i < P; i++ {
		scratch[i] = newLocalScratch(m, fmt.Sprintf("pcc.h%d", i), B, i)
		recvArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("pcc.r%d", i), n, i)
		outArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("pcc.o%d", i), n, i)
	}
	m.ResetMemory()

	finalCounts := make([]int, P)
	finalArr := make([]*machine.Array[uint32], P)

	plans := newPlanSet(1)
	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		lo, hi := bounds(n, P, me)
		np := hi - lo
		sc := scratch[me]

		p.SetPhase("localsort")
		inTmp := localRadixSort(p, keyArr, tmpArr, lo, np, cfg, sc, machine.Private)
		sortedArr := keyArr
		if inTmp {
			sortedArr = tmpArr
		}
		if P == 1 {
			// A uniprocessor PSRS is just the local sort.
			finalArr[0], finalCounts[0] = sortedArr, np
			return
		}

		p.SetPhase("sample")
		samples := selectSamples(p, sortedArr, lo, np, P)
		copy(sampleArr.Data[me*P:me*P+len(samples)], samples)
		sampleArr.StoreRange(p, me*P, me*P+len(samples), machine.Private)

		p.SetPhase("pivot-exchange")
		world.Barrier(p)
		// Processor 0 alone gathers all samples, merges the P sorted runs
		// and picks the pivots — PSRS's serialized pivot step, unlike the
		// group-based splitter election of the sample sort.
		if me == 0 {
			pool := make([]uint32, 0, P*P)
			for q := 0; q < P; q++ {
				class := machine.RemoteProduced
				if q == 0 {
					class = machine.Private
				}
				qLo, qHi := bounds(n, P, q)
				cnt := min(P, qHi-qLo)
				if cnt == 0 {
					continue
				}
				sampleArr.LoadRange(p, q*P, q*P+cnt, class)
				pool = append(pool, sampleArr.Data[q*P:q*P+cnt]...)
				p.Compute(3)
			}
			mergeSamplesCharged(p, pool, P)
			pv := pivotsFrom(p, pool, P)
			copy(pivotArr.Data[:len(pv)], pv)
			pivotArr.StoreRange(p, 0, len(pv), machine.Private)
		}
		world.Barrier(p)
		// Broadcast: every processor reads the root's pivots (shared-read
		// lines replicate in each reader's cache).
		pivotArr.LoadRange(p, 0, P-1, machine.SharedRead)
		pivots := make([]uint32, P-1)
		copy(pivots, pivotArr.Data[:P-1])
		p.Compute(P)

		p.SetPhase("partition")
		b := boundariesOf(p, sortedArr, lo, np, pivots)
		if hook := corruptPSRSBoundary; hook != nil {
			hook(me, np, b)
		}
		copy(boundArr.Data[me*(P+1):(me+1)*(P+1)], b)
		boundArr.StoreRange(p, me*(P+1), (me+1)*(P+1), machine.Private)
		world.Barrier(p)
		// Read every processor's boundary vector and build the chunk plan
		// redundantly; destinations play the role of radix buckets, so the
		// plan's rank/bufPos/gStart give the exchange offsets directly.
		hists := make([][]int32, P)
		for q := 0; q < P; q++ {
			class := machine.RemoteProduced
			if q == me {
				class = machine.Private
			}
			boundArr.LoadRange(p, q*(P+1), (q+1)*(P+1), class)
			hists[q] = psrsDestCounts(p, boundArr.Data[q*(P+1):(q+1)*(P+1)])
		}
		plan := plans.get(0, n, hists)
		p.Compute(plan.computeOps())

		p.SetPhase("transfer")
		incoming := psrsIncoming(plan, me)
		recv := recvArr[me].Grow(incoming)
		p.SetContention(p.ContentionFactor(P, false))
		for k := 0; k < P; k++ {
			q := (me + k) % P
			cnt := int(plan.hists[q][me])
			if cnt == 0 {
				continue
			}
			qLo, _ := bounds(n, P, q)
			start := qLo + int(plan.bufPos[q][me])
			at := int(plan.rank[q][me])
			class := machine.RemoteProduced
			if q == me {
				class = machine.Private
			}
			sortedArr.LoadRange(p, start, start+cnt, class)
			copy(recv.Data[at:at+cnt], sortedArr.Data[start:start+cnt])
			recv.StoreRange(p, at, at+cnt, machine.Private)
			p.Compute(cnt)
		}
		p.SetContention(1)

		p.SetPhase("merge")
		out := outArr[me].Grow(incoming)
		starts, counts := psrsRuns(plan, me)
		multiwayMergeCharged(p, recv, out, starts, counts)
		finalArr[me], finalCounts[me] = out, incoming
	})

	sorted := gatherSortedSample(finalArr, finalCounts, n, P)
	return &Result{Algorithm: "psrs", Model: "ccsas", Sorted: sorted,
		RecvCounts: finalCounts, Run: run}, nil
}
