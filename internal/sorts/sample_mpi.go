package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// sampleChunkMsg is the single redistribution message each process sends
// to each other process in sample sort.
type sampleChunkMsg struct {
	data []uint32
}

// SampleMPI runs the parallel sample sort under message passing,
// following the paper's MPI program: phases 1, 2 and 5 match CC-SAS; the
// splitter phase uses MPI_Allgather (every process then computes the
// splitters redundantly, with no process groups); and the redistribution
// uses exactly one message per process pair.
func SampleMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
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
	tmp2Arr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	sCount := cfg.SampleSize
	if sCount > n/P {
		sCount = max(1, n/P)
	}
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		np := hi - lo
		keyArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("smpi.k%d", i), np, i)
		tmpArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("smpi.t%d", i), np, i)
		recvArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("smpi.r%d", i), n, i)
		tmp2Arr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("smpi.r2%d", i), n, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("smpi.h%d", i), B, i)
		copy(keyArr[i].Data, keysIn[lo:hi])
	}
	m.ResetMemory()

	var pool samplePool
	finalCounts := make([]int, P)
	finalArr := make([]*machine.Array[uint32], P)

	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		np := keyArr[me].Len()
		sc := scratch[me]

		p.SetPhase("localsort1")
		// Phase 1: local sort.
		inTmp := localRadixSort(p, keyArr[me], tmpArr[me], 0, np, cfg, sc, machine.Private)
		sorted := keyArr[me]
		if inTmp {
			sorted = tmpArr[me]
		}
		if P == 1 {
			finalArr[0], finalCounts[0] = sorted, np
			return
		}

		p.SetPhase("splitters")
		// Phases 2+3: allgather samples; compute splitters redundantly.
		samples := selectSamples(p, sorted, 0, np, sCount)
		gathered := mpi.Allgather(c, p, samples)
		all := pool.merge(p, P, gathered...)
		splitters := splittersFrom(p, all, P)

		p.SetPhase("redistribute")
		// Phase 4: one message per destination.
		b := boundariesOf(p, sorted, 0, np, splitters)
		selfCnt := int(b[me+1] - b[me])
		incomingKnown := selfCnt
		recv := recvArr[me].Grow(min(n, selfCnt))
		if selfCnt > 0 {
			sorted.LoadRange(p, int(b[me]), int(b[me])+selfCnt, machine.Private)
			copy(recv.Data[:selfCnt], sorted.Data[b[me]:b[me+1]])
			recv.StoreRange(p, 0, selfCnt, machine.Private)
			p.Compute(selfCnt)
		}
		at := selfCnt
		p.SetContention(p.ContentionFactor(P, false))
		for k := 1; k < P; k++ {
			dst := (me + k) % P
			src := (me - k + P) % P
			cnt := int(b[dst+1] - b[dst])
			data := make([]uint32, cnt)
			if cnt > 0 {
				sorted.LoadRange(p, int(b[dst]), int(b[dst])+cnt, machine.Private)
				copy(data, sorted.Data[b[dst]:b[dst+1]])
			}
			c.Send(p, dst, 0, sampleChunkMsg{data: data}, 4*cnt)
			msg := c.Recv(p, src, 0, 0)
			in := msg.Payload.(sampleChunkMsg).data
			incomingKnown = at + len(in)
			recv = recvArr[me].Grow(incomingKnown)
			copy(recv.Data[at:at+len(in)], in)
			p.InvalidateRange(recv.Addr(at), recv.Bytes(len(in)))
			p.Compute(8)
			at += len(in)
		}
		p.SetContention(1)
		incoming := at

		p.SetPhase("localsort2")
		// Phase 5: local sort of the received keys.
		tmp2 := tmp2Arr[me].Grow(incoming)
		inTmp2 := localRadixSort(p, recv, tmp2, 0, incoming, cfg, sc, machine.Private)
		if inTmp2 {
			finalArr[me] = tmp2
		} else {
			finalArr[me] = recv
		}
		finalCounts[me] = incoming
	})

	sorted := gatherSortedSample(finalArr, finalCounts, n, P)
	return &Result{Algorithm: "sample", Model: "mpi-" + cfg.MPI.Engine.String(),
		Sorted: sorted, RecvCounts: finalCounts, Run: run}, nil
}
