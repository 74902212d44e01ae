package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/shmem"
)

// RadixSHMEM runs the parallel radix sort under the SHMEM one-sided
// model, transformed from the MPI program as in the paper: histograms
// are collected with a symmetric allgather, keys are locally permuted
// into a symmetric bucket-major send segment, and — since every process
// has the full histogram locally — communication is receiver-initiated:
// each process gets every remote chunk destined for its partition, which
// also lands the data in its cache.
func RadixSHMEM(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keysIn)
	P := m.Procs()
	B := cfg.Buckets()
	c := shmem.New(m, cfg.Shmem)

	// Partition sizes differ by at most one key; symmetric segments are
	// sized for the largest partition.
	maxPart := 0
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		if hi-lo > maxPart {
			maxPart = hi - lo
		}
	}

	sendSeg := shmem.NewSym[uint32](c, "rshm.send", maxPart)
	histSeg := shmem.NewSym[int32](c, "rshm.hist", B)
	histAll := shmem.NewSym[int32](c, "rshm.hists", B*P)
	curArr := make([]*machine.Array[uint32], P)
	nxtArr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		np := hi - lo
		curArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("rshm.a%d", i), np, i)
		nxtArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("rshm.b%d", i), np, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("rshm.h%d", i), B, i)
		copy(curArr[i].Data, keysIn[lo:hi])
	}
	m.ResetMemory()

	plans := newPlanSet(cfg.Passes())
	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		np := curArr[me].Len()
		sc := scratch[me]
		cur, nxt := curArr[me], nxtArr[me]
		for pass := 0; pass < cfg.Passes(); pass++ {
			p.SetPhase("count")
			counts := countPass(p, cur, 0, np, pass, cfg, sc, machine.Private)

			// Symmetric allgather of histograms; plan computed locally.
			p.SetPhase("histogram")
			copy(histSeg.Local(p).Data, counts)
			histSeg.Local(p).StoreRange(p, 0, B, machine.Private)
			p.Compute(B)
			shmem.Collect(p, histSeg, histAll, B)
			hists := make([][]int32, P)
			for i := 0; i < P; i++ {
				hists[i] = histAll.Local(p).Data[i*B : (i+1)*B]
			}
			plan := plans.get(pass, n, hists)
			p.Compute(plan.computeOps())

			// Local permutation into the symmetric send segment.
			p.SetPhase("permute")
			buf := sendSeg.Local(p)
			bpos := make([]int64, B)
			copy(bpos, plan.bufPos[me])
			permutePass(p, cur, buf, 0, np, pass, cfg, sc, bpos,
				machine.Private, machine.Private)

			// Send buffers must be globally complete before anyone pulls.
			p.SetPhase("sync")
			c.Barrier(p)
			p.SetPhase("transfer")

			// Keys staying local move with plain copies.
			for _, ch := range plan.sendChunks(me, me) {
				buf.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
				copy(nxt.Data[ch.dstOff:ch.dstOff+ch.count],
					buf.Data[ch.srcOff:ch.srcOff+ch.count])
				nxt.StoreRange(p, ch.dstOff, ch.dstOff+ch.count, machine.Private)
				p.Compute(ch.count)
			}
			// Receiver-initiated transfers: get every remote chunk
			// destined here (the get also fills this processor's cache).
			bulk := p.ContentionFactor(P, false)
			p.SetContention(bulk)
			for k := 1; k < P; k++ {
				src := (me + k) % P
				for _, ch := range plan.sendChunks(src, me) {
					sendSeg.GetInto(p, nxt, ch.dstOff, src, ch.srcOff, ch.count)
					p.Compute(4)
				}
			}
			p.SetContention(1)

			// Everyone must finish pulling before send buffers are
			// overwritten by the next pass.
			p.SetPhase("sync")
			c.Barrier(p)
			p.SetPhase("")
			cur, nxt = nxt, cur
		}
	})

	final := curArr
	if cfg.Passes()%2 == 1 {
		final = nxtArr
	}
	sorted := make([]uint32, 0, n)
	for i := 0; i < P; i++ {
		sorted = append(sorted, final[i].Data...)
	}
	return &Result{Algorithm: "radix", Model: "shmem", Sorted: sorted,
		RecvCounts: blockedCounts(n, P), Run: run}, nil
}
