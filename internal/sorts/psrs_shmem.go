package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/shmem"
)

// PsrsSHMEM runs Parallel Sorting by Regular Sampling under the SHMEM
// model. Communication is sender-initiated (one-sided puts, the
// Origin's cheap primitive): every rank puts its regular samples into
// the root's pool segment, the root picks the pivots, and after a
// barrier every other rank gets the pivots from the root's symmetric
// pivot segment. The partition counts are collected symmetrically (the
// SHMEM allgather), the chunk exchange puts each chunk straight into
// its destination's symmetric receive buffer at the offset the shared
// chunk plan assigns, and a local multiway merge finishes. Pushing
// rather than pulling keeps a skewed partition's cost on the senders,
// who spread it: regular sampling balances what each rank sends, not
// what it receives.
func PsrsSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keysIn)
	P := m.Procs()
	B := cfg.Buckets()
	c := shmem.New(m, cfg.Shmem)

	maxPart := 0
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		if hi-lo > maxPart {
			maxPart = hi - lo
		}
	}

	// Symmetric segments: the sorted key arrays, the sample pool the
	// ranks put into, the pivot segment of the broadcast, the
	// partition-count exchange vectors, and the receive buffers the
	// chunk exchange puts into (address-reserved; each rank grows its
	// own once the plan fixes its incoming size). Only the root's pool
	// is ever read, so only its pool gets host memory.
	segA := shmem.NewSym[uint32](c, "pshm.a", maxPart)
	segB := shmem.NewSym[uint32](c, "pshm.b", maxPart)
	sampleSeg := shmem.NewSym[uint32](c, "pshm.smp", P)
	poolSeg := shmem.NewSymReserve[uint32](c, "pshm.gpool", P*P)
	poolSeg.Seg[0].Grow(P * P)
	pivotSeg := shmem.NewSym[uint32](c, "pshm.piv", max(1, P-1))
	countSeg := shmem.NewSym[int32](c, "pshm.dc", P)
	countAll := shmem.NewSym[int32](c, "pshm.dcs", P*P)
	recvSeg := shmem.NewSymReserve[uint32](c, "pshm.r", n)

	outArr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		copy(segA.Seg[i].Data, keysIn[lo:hi])
		outArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("pshm.o%d", i), n, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("pshm.h%d", i), B, i)
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
		inTmp := localRadixSort(p, segA.Seg[me], segB.Seg[me], 0, np, cfg, sc, machine.Private)
		sortedSeg := segA
		if inTmp {
			sortedSeg = segB
		}
		sorted := sortedSeg.Seg[me]
		if P == 1 {
			finalArr[0], finalCounts[0] = sorted, np
			return
		}

		p.SetPhase("sample")
		samples := selectSamples(p, sorted, 0, np, P)
		copy(sampleSeg.Local(p).Data, samples)
		sampleSeg.Local(p).StoreRange(p, 0, len(samples), machine.Private)
		p.Compute(len(samples))

		p.SetPhase("pivot-exchange")
		// Every rank pushes its samples into the root's pool segment;
		// the senders proceed in parallel, so the root never pays a
		// serial round-trip per rank. Per-rank sample counts are
		// min(P, partition size) — deterministic, so no count exchange.
		if me == 0 {
			lp := poolSeg.Local(p)
			copy(lp.Data[:len(samples)], samples)
			lp.StoreRange(p, 0, len(samples), machine.Private)
			p.Compute(len(samples))
		} else {
			poolSeg.PutFrom(p, sampleSeg.Local(p), 0, 0, me*P, len(samples))
			p.Compute(4)
		}
		c.Barrier(p)
		if me == 0 {
			lp := poolSeg.Local(p)
			pool := make([]uint32, 0, P*P)
			for q := 0; q < P; q++ {
				qLo, qHi := bounds(n, P, q)
				cnt := min(P, qHi-qLo)
				if q != 0 {
					// The puts invalidated our copies of these lines.
					lp.LoadRange(p, q*P, q*P+cnt, machine.Private)
				}
				pool = append(pool, lp.Data[q*P:q*P+cnt]...)
				p.Compute(4)
			}
			mergeSamplesCharged(p, pool, P)
			pv := pivotsFrom(p, pool, P)
			copy(pivotSeg.Local(p).Data[:len(pv)], pv)
			pivotSeg.Local(p).StoreRange(p, 0, len(pv), machine.Private)
		}
		c.Barrier(p)
		pivots := make([]uint32, P-1)
		if me != 0 {
			// Broadcast by get: pull rank 0's pivots into the local segment.
			pivotSeg.Get(p, 0, 0, 0, P-1)
			p.Compute(4)
		}
		copy(pivots, pivotSeg.Local(p).Data[:P-1])
		p.Compute(P)

		p.SetPhase("partition")
		b := boundariesOf(p, sorted, 0, np, pivots)
		if hook := corruptPSRSBoundary; hook != nil {
			hook(me, np, b)
		}
		counts := psrsDestCounts(p, b)
		copy(countSeg.Local(p).Data, counts)
		countSeg.Local(p).StoreRange(p, 0, P, machine.Private)
		shmem.Collect(p, countSeg, countAll, P)
		all := countAll.Local(p).Data
		hists := make([][]int32, P)
		for q := 0; q < P; q++ {
			hists[q] = all[q*P : (q+1)*P]
		}
		plan := plans.get(0, n, hists)
		p.Compute(plan.computeOps())

		p.SetPhase("transfer")
		incoming := psrsIncoming(plan, me)
		recv := recvSeg.Local(p).Grow(incoming)
		// Receive buffers must exist before any put targets them.
		c.Barrier(p)
		p.SetContention(p.ContentionFactor(P, false))
		for k := 0; k < P; k++ {
			d := (me + k) % P
			cnt := int(plan.hists[me][d])
			if cnt == 0 {
				continue
			}
			srcOff := int(plan.bufPos[me][d])
			at := int(plan.rank[me][d])
			if d == me {
				sorted.LoadRange(p, srcOff, srcOff+cnt, machine.Private)
				copy(recv.Data[at:at+cnt], sorted.Data[srcOff:srcOff+cnt])
				recv.StoreRange(p, at, at+cnt, machine.Private)
				p.Compute(cnt)
			} else {
				recvSeg.PutFrom(p, sorted, srcOff, d, at, cnt)
				p.Compute(4)
			}
		}
		p.SetContention(1)
		// Every chunk must have landed before the merge reads it.
		c.Barrier(p)

		p.SetPhase("merge")
		out := outArr[me].Grow(incoming)
		starts, cnts := psrsRuns(plan, me)
		multiwayMergeCharged(p, recv, out, starts, cnts)
		finalArr[me], finalCounts[me] = out, incoming
	})

	sorted := gatherSortedSample(finalArr, finalCounts, n, P)
	return &Result{Algorithm: "psrs", Model: "shmem", Sorted: sorted,
		RecvCounts: finalCounts, Run: run}, nil
}
