package sorts

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// radixChunkMsg is the payload of one permutation-phase message: a
// contiguous run of keys plus its destination offset within the
// receiver's partition.
type radixChunkMsg struct {
	dstOff int
	data   []uint32
}

// stagingNsPerByte prices the extra memory-speed pass the one-message
// variant takes over its payload at each end (gather into the staging
// buffer, stream back out of the arrival buffer).
const stagingNsPerByte = 1.0

// radixDestMsg is the NAS-IS-style payload: every chunk for one
// destination in a single message; the receiver places each run.
type radixDestMsg struct {
	dstOffs []int
	lens    []int
	data    []uint32
}

// RadixMPI runs the parallel radix sort under message passing. The
// structure follows the paper's MPI program: local histograms are
// allgathered so every process computes the global histogram (and all
// send/receive parameters) locally; keys are first permuted into a local
// bucket-major buffer to compose larger messages; and each contiguously-
// destined chunk is sent as its own message so the receiver can place it
// directly (the variant the paper found faster than one-message-per-
// destination reorganization).
func RadixMPI(m *machine.Machine, keysIn []uint32, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keysIn)
	P := m.Procs()
	B := cfg.Buckets()
	c := mpi.New(m, cfg.MPI)

	// Per-process partitions: private input/output arrays plus the send
	// buffer, all allocated in the (shared-underneath) address space as
	// the impure model requires.
	curArr := make([]*machine.Array[uint32], P)
	nxtArr := make([]*machine.Array[uint32], P)
	bufArr := make([]*machine.Array[uint32], P)
	scratch := make([]*localScratch, P)
	for i := 0; i < P; i++ {
		lo, hi := bounds(n, P, i)
		np := hi - lo
		curArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("rmpi.a%d", i), np, i)
		nxtArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("rmpi.b%d", i), np, i)
		bufArr[i] = machine.NewArrayOnProc[uint32](m, fmt.Sprintf("rmpi.buf%d", i), np, i)
		scratch[i] = newLocalScratch(m, fmt.Sprintf("rmpi.hist%d", i), B, i)
		copy(curArr[i].Data, keysIn[lo:hi])
	}
	m.ResetMemory()

	plans := newPlanSet(cfg.Passes())
	run := m.Run(func(p *machine.Proc) {
		me := p.ID
		np := curArr[me].Len()
		sc := scratch[me]
		cur, nxt := curArr[me], nxtArr[me]
		buf := bufArr[me]
		for pass := 0; pass < cfg.Passes(); pass++ {
			p.SetPhase("count")
			counts := countPass(p, cur, 0, np, pass, cfg, sc, machine.Private)

			// Collect everyone's histogram; every process pays for
			// computing the plan locally (redundant, as the paper notes).
			p.SetPhase("histogram")
			hists := mpi.Allgather(c, p, counts)
			plan := plans.get(pass, n, hists)
			p.Compute(plan.computeOps())

			// Local permutation into the bucket-major send buffer.
			p.SetPhase("permute")
			bpos := make([]int64, B)
			copy(bpos, plan.bufPos[me])
			permutePass(p, cur, buf, 0, np, pass, cfg, sc, bpos,
				machine.Private, machine.Private)

			// Keys staying local move without messages.
			p.SetPhase("transfer")
			for _, ch := range plan.sendChunks(me, me) {
				buf.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
				copy(nxt.Data[ch.dstOff:ch.dstOff+ch.count],
					buf.Data[ch.srcOff:ch.srcOff+ch.count])
				nxt.StoreRange(p, ch.dstOff, ch.dstOff+ch.count, machine.Private)
				p.Compute(ch.count)
			}

			// Interleaved all-to-all: in round k, send chunks to me+k and
			// receive chunks from me-k, alternating one-for-one so the
			// shallow per-pair windows cannot deadlock.
			p.SetContention(p.ContentionFactor(P, false))
			if cfg.MPIOneMessagePerDest {
				exchangeOneMsgPerDest(p, c, plan, buf, nxt, me, P, pass)
			} else {
				exchangePerChunk(p, c, plan, buf, nxt, me, P, pass)
			}
			p.SetContention(1)
			p.SetPhase("")
			cur, nxt = nxt, cur
		}
	})

	// cfg.Passes() swaps landed the result in curArr when even, nxtArr
	// when odd — reconstruct the final arrays per processor.
	final := curArr
	if cfg.Passes()%2 == 1 {
		final = nxtArr
	}
	sorted := make([]uint32, 0, n)
	for i := 0; i < P; i++ {
		sorted = append(sorted, final[i].Data...)
	}
	model := "mpi-" + cfg.MPI.Engine.String()
	if cfg.MPIOneMessagePerDest {
		model += "-onemsg"
	}
	return &Result{Algorithm: "radix", Model: model, Sorted: sorted,
		RecvCounts: blockedCounts(n, P), Run: run}, nil
}

// exchangePerChunk sends each contiguously-destined run as its own
// message (the paper's chosen variant).
func exchangePerChunk(p *machine.Proc, c *mpi.Comm, plan *chunkPlan,
	buf, nxt *machine.Array[uint32], me, P, pass int) {
	for k := 1; k < P; k++ {
		dst := (me + k) % P
		src := (me - k + P) % P
		sends := plan.sendChunks(me, dst)
		recvs := plan.numChunks(src, me)
		si, ri := 0, 0
		for si < len(sends) || ri < recvs {
			if si < len(sends) {
				ch := sends[si]
				si++
				buf.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
				data := make([]uint32, ch.count)
				copy(data, buf.Data[ch.srcOff:ch.srcOff+ch.count])
				c.Send(p, dst, pass, radixChunkMsg{dstOff: ch.dstOff, data: data},
					buf.Bytes(ch.count))
			}
			if ri < recvs {
				msg := c.Recv(p, src, 0, 0)
				ri++
				pay := msg.Payload.(radixChunkMsg)
				copy(nxt.Data[pay.dstOff:pay.dstOff+len(pay.data)], pay.data)
				p.InvalidateRange(nxt.Addr(pay.dstOff), nxt.Bytes(len(pay.data)))
				p.Compute(8) // placement bookkeeping
			}
		}
	}
}

// exchangeOneMsgPerDest sends one message per destination (NAS IS
// style): the sender gathers that destination's chunks into one
// contiguous buffer (an extra local copy), and the receiver reorganizes
// the runs into their final positions (extra local stores).
func exchangeOneMsgPerDest(p *machine.Proc, c *mpi.Comm, plan *chunkPlan,
	buf, nxt *machine.Array[uint32], me, P, pass int) {
	for k := 1; k < P; k++ {
		dst := (me + k) % P
		src := (me - k + P) % P

		// Compose the single outgoing message.
		chunks := plan.sendChunks(me, dst)
		var msgOut radixDestMsg
		total := 0
		for _, ch := range chunks {
			total += ch.count
		}
		msgOut.data = make([]uint32, 0, total)
		for _, ch := range chunks {
			buf.LoadRange(p, ch.srcOff, ch.srcOff+ch.count, machine.Private)
			msgOut.dstOffs = append(msgOut.dstOffs, ch.dstOff)
			msgOut.lens = append(msgOut.lens, ch.count)
			msgOut.data = append(msgOut.data, buf.Data[ch.srcOff:ch.srcOff+ch.count]...)
			p.Compute(ch.count) // the gather copy's ALU work
		}
		// The gather writes a staging buffer the wire reads back: one
		// memory-speed pass over the payload.
		p.LocalMemNs(float64(4*total) * stagingNsPerByte)
		c.Send(p, dst, pass, msgOut, 4*total)

		// Receive one message and scatter its runs into place.
		msg := c.Recv(p, src, 0, 0)
		in := msg.Payload.(radixDestMsg)
		// Stream the arrived (uncached) payload back in before scattering.
		p.LocalMemNs(float64(msg.Bytes) * stagingNsPerByte)
		at := 0
		for i, off := range in.dstOffs {
			cnt := in.lens[i]
			copy(nxt.Data[off:off+cnt], in.data[at:at+cnt])
			p.InvalidateRange(nxt.Addr(off), nxt.Bytes(cnt))
			nxt.StoreRange(p, off, off+cnt, machine.Private)
			p.Compute(cnt + 8) // reorganization copy
			at += cnt
		}
	}
}
