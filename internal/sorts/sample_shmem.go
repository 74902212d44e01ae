package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/shmem"
)

// SampleSHMEM runs the parallel sample sort under the SHMEM model,
// obtained from the MPI program as in the paper: the only difference is
// that the redistribution phase replaces each send/receive pair with a
// one-sided get (each process pulls its chunk from every source's
// symmetric sorted segment).
func SampleSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
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
	sCount := cfg.SampleSize
	if sCount > n/P {
		sCount = max(1, n/P)
	}

	// Symmetric segments: the key arrays others will get from, the
	// sample and boundary exchange vectors.
	segA := shmem.NewSym[uint32](c, "sshm.a", maxPart)
	segB := shmem.NewSym[uint32](c, "sshm.b", maxPart)
	sampleSeg := shmem.NewSym[uint32](c, "sshm.smp", sCount)
	sampleAll := shmem.NewSym[uint32](c, "sshm.smps", sCount*P)
	boundSeg := shmem.NewSym[int64](c, "sshm.bnd", P+1)
	boundAll := shmem.NewSym[int64](c, "sshm.bnds", (P+1)*P)

	recvArr := make([]*machine.Array[uint32], P)
	tmp2Arr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		copy(segA.Seg[i].Data, keysIn[lo:hi])
		recvArr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("sshm.r%d", i), n, i)
		tmp2Arr[i] = machine.NewArrayReserve[uint32](m, fmt.Sprintf("sshm.r2%d", i), n, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("sshm.h%d", i), B, i)
	}
	m.ResetMemory()

	var pool samplePool
	finalCounts := make([]int, P)
	finalArr := make([]*machine.Array[uint32], P)

	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		lo, hi := bounds(n, P, me)
		np := hi - lo
		sc := scratch[me]

		p.SetPhase("localsort1")
		// Phase 1: local sort within the symmetric segment pair.
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

		p.SetPhase("splitters")
		// Phases 2+3: symmetric allgather of samples; splitters computed
		// redundantly everywhere.
		samples := selectSamples(p, sorted, 0, np, sCount)
		copy(sampleSeg.Local(p).Data, samples)
		sampleSeg.Local(p).StoreRange(p, 0, len(samples), machine.Private)
		p.Compute(len(samples))
		shmem.Collect(p, sampleSeg, sampleAll, sCount)
		all := pool.merge(p, P, sampleAll.Local(p).Data)
		splitters := splittersFrom(p, all, P)

		p.SetPhase("redistribute")
		// Phase 4: publish boundaries, then pull one chunk per source.
		b := boundariesOf(p, sorted, 0, np, splitters)
		copy(boundSeg.Local(p).Data, b)
		boundSeg.Local(p).StoreRange(p, 0, P+1, machine.Private)
		p.Compute(P)
		shmem.Collect(p, boundSeg, boundAll, P+1)

		bAll := boundAll.Local(p).Data
		incoming := 0
		for q := 0; q < P; q++ {
			incoming += int(bAll[q*(P+1)+me+1] - bAll[q*(P+1)+me])
		}
		p.Compute(2 * P)
		recv := recvArr[me].Grow(incoming)

		p.SetContention(p.ContentionFactor(P, false))
		at := 0
		for k := 0; k < P; k++ {
			q := (me + k) % P
			qOff := int(bAll[q*(P+1)+me])
			cnt := int(bAll[q*(P+1)+me+1]) - qOff
			if cnt == 0 {
				continue
			}
			if q == me {
				sorted.LoadRange(p, qOff, qOff+cnt, machine.Private)
				copy(recv.Data[at:at+cnt], sorted.Data[qOff:qOff+cnt])
				recv.StoreRange(p, at, at+cnt, machine.Private)
				p.Compute(cnt)
			} else {
				sortedSeg.GetInto(p, recv, at, q, qOff, cnt)
				p.Compute(4)
			}
			at += cnt
		}
		p.SetContention(1)

		// Sources must not be overwritten until everyone pulled; phase 5
		// only reads private arrays, so one barrier suffices.
		c.Barrier(p)

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
	return &Result{Algorithm: "sample", Model: "shmem", Sorted: sorted,
		RecvCounts: finalCounts, Run: run}, nil
}
