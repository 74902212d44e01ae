package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// psrsSampleMsg carries one processor's regular samples to the root.
type psrsSampleMsg struct {
	data []uint32
}

// psrsPivotMsg carries the selected pivots from the root to a leaf.
type psrsPivotMsg struct {
	data []uint32
}

// psrsChunkMsg is the single all-to-all message each processor sends to
// each other processor during the partition exchange.
type psrsChunkMsg struct {
	data []uint32
}

// PsrsMPI runs Parallel Sorting by Regular Sampling under message
// passing. Unlike the sample sort's allgathered splitter selection, the
// pivot step is PSRS's explicit gather/broadcast through rank 0: every
// rank sends its P samples to the root, the root merges and picks the
// P-1 pivots, then sends them back — 2(P-1) point-to-point messages
// serialized at the root. The partition counts are allgathered so every
// rank builds the chunk plan redundantly, and the exchange uses exactly
// one message per pair followed by a local multiway merge.
func PsrsMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keysIn)
	P := m.Procs()
	B := cfg.Buckets()
	c := mpi.New(m, cfg.MPI)

	keyArr := make([]*machine.Array[uint32], P)
	tmpArr := make([]*machine.Array[uint32], P)
	recvArr := make([]*machine.Array[uint32], P)
	outArr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		np := hi - lo
		keyArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("pmpi.k%d", i), np, i)
		tmpArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("pmpi.t%d", i), np, i)
		recvArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("pmpi.r%d", i), n, i)
		outArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("pmpi.o%d", i), n, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("pmpi.h%d", i), B, i)
		copy(keyArr[i].Data, keysIn[lo:hi])
	}
	m.ResetMemory()

	finalCounts := make([]int, P)
	finalArr := make([]*machine.Array[uint32], P)

	plans := newPlanSet(1)
	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		np := keyArr[me].Len()
		sc := scratch[me]

		p.SetPhase("localsort")
		inTmp := localRadixSort(p, keyArr[me], tmpArr[me], 0, np, cfg, sc, machine.Private)
		sorted := keyArr[me]
		if inTmp {
			sorted = tmpArr[me]
		}
		if P == 1 {
			finalArr[0], finalCounts[0] = sorted, np
			return
		}

		p.SetPhase("sample")
		samples := selectSamples(p, sorted, 0, np, P)

		p.SetPhase("pivot-exchange")
		var pivots []uint32
		if me == 0 {
			pool := make([]uint32, 0, P*P)
			pool = append(pool, samples...)
			for q := 1; q < P; q++ {
				msg := c.Recv(p, q, 0, 0)
				pool = append(pool, msg.Payload.(psrsSampleMsg).data...)
			}
			mergeSamplesCharged(p, pool, P)
			pivots = pivotsFrom(p, pool, P)
			for q := 1; q < P; q++ {
				c.Send(p, q, 1, psrsPivotMsg{data: pivots}, 4*len(pivots))
			}
		} else {
			c.Send(p, 0, 0, psrsSampleMsg{data: samples}, 4*len(samples))
			msg := c.Recv(p, 0, 0, 0)
			pivots = msg.Payload.(psrsPivotMsg).data
		}

		p.SetPhase("partition")
		b := boundariesOf(p, sorted, 0, np, pivots)
		if hook := corruptPSRSBoundary; hook != nil {
			hook(me, np, b)
		}
		counts := psrsDestCounts(p, b)
		hists := mpi.Allgather(c, p, counts)
		plan := plans.get(0, n, hists)
		p.Compute(plan.computeOps())

		p.SetPhase("transfer")
		incoming := psrsIncoming(plan, me)
		recv := recvArr[me].Grow(incoming)
		// Self chunk: a local copy, no message.
		if selfCnt := int(plan.hists[me][me]); selfCnt > 0 {
			off := int(plan.bufPos[me][me])
			at := int(plan.rank[me][me])
			sorted.LoadRange(p, off, off+selfCnt, machine.Private)
			copy(recv.Data[at:at+selfCnt], sorted.Data[off:off+selfCnt])
			recv.StoreRange(p, at, at+selfCnt, machine.Private)
			p.Compute(selfCnt)
		}
		p.SetContention(p.ContentionFactor(P, false))
		for k := 1; k < P; k++ {
			dst := (me + k) % P
			src := (me - k + P) % P
			cnt := int(plan.hists[me][dst])
			data := make([]uint32, cnt)
			if cnt > 0 {
				off := int(plan.bufPos[me][dst])
				sorted.LoadRange(p, off, off+cnt, machine.Private)
				copy(data, sorted.Data[off:off+cnt])
			}
			c.Send(p, dst, 2, psrsChunkMsg{data: data}, 4*cnt)
			msg := c.Recv(p, src, 0, 0)
			in := msg.Payload.(psrsChunkMsg).data
			at := int(plan.rank[src][me])
			copy(recv.Data[at:at+len(in)], in)
			p.InvalidateRange(recv.Addr(at), recv.Bytes(len(in)))
			p.Compute(8)
		}
		p.SetContention(1)

		p.SetPhase("merge")
		out := outArr[me].Grow(incoming)
		starts, cnts := psrsRuns(plan, me)
		multiwayMergeCharged(p, recv, out, starts, cnts)
		finalArr[me], finalCounts[me] = out, incoming
	})

	sorted := gatherSortedSample(finalArr, finalCounts, n, P)
	return &Result{Algorithm: "psrs", Model: "mpi-" + cfg.MPI.Engine.String(),
		Sorted: sorted, RecvCounts: finalCounts, Run: run}, nil
}
