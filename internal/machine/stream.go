package machine

import "repro/internal/cache"

// This file is the machine's one access path (DESIGN.md §13). Every
// simulated reference a program charges — a stream kernel's element, a
// cursor's element, a block walk's line — goes through step, which
// resolves it against the issuing stream's private lane. The kernels
// charge an entire inner loop in one call and hoist what the loop would
// re-derive per element; each access stream gets its own lane so its
// same-line and same-page runs resolve in one inlined compare instead of
// a probe.
//
// Equivalence contract: lanes only skip probes whose outcome they can
// prove, so step charges exactly what p.access charges — same counters,
// same replacement decisions, same float addition order — and simulated
// results are bit-identical to the per-access reference path
// (TestStreamEquivalence, FuzzAccessOracle). Under full paranoid mode
// step's miss half takes p.access itself, which turns any `-paranoid`
// run into a whole-run differential test of the lanes; spot-sampled
// paranoid mode (Config.ParanoidSampleEvery > 1) keeps the lanes, whose
// misses still flow through the hooked missCharge.

// A lane is one access stream's private TLB and cache lane. Both halves
// are self-validating, so a lane needs no registration and no closing,
// and a lane left over from an earlier stream is as exact as a fresh one.
type lane struct {
	tlb  cache.TLBLane
	line cache.Lane
}

// reset empties both halves of the lane.
func (l *lane) reset() { l.tlb.Reset(); l.line.Reset() }

// step charges one memory reference of the stream owning l: the TLB lane
// (a miss probes, and a TLB miss charges TLBMissNs), then the cache lane
// (a miss probes, charges any dirty eviction, then prices the cache miss
// by its sharing class). overlap divides the miss latency: 1 for
// dependent accesses, Config.MissOverlap for streams whose misses
// pipeline through the MSHRs.
//
// step is hit, then miss if hit declines. hit is small enough to inline
// but step is not, so the hot loops spell it out as
// `if !p.hit(...) { p.miss(...) }` and a lane hit costs no call.
func (p *Proc) step(l *lane, a Addr, write bool, sh Sharing, overlap float64) {
	if !p.hit(l, a, write) {
		p.miss(l, a, write, sh, overlap)
	}
}

// hit completes a reference that hits both halves of l and reports
// whether it did. It leaves the reference to miss otherwise, having
// counted the translation if the TLB lane hit and nothing else.
func (p *Proc) hit(l *lane, a Addr, write bool) bool {
	return p.tlb.LaneHit(&l.tlb, a) && p.cache.LaneHit(&l.line, a, write)
}

// miss completes a reference hit declined. Under full paranoid mode
// lanes never capture, so every reference lands here with its TLB lane
// missed and takes the shadowed p.access instead.
func (p *Proc) miss(l *lane, a Addr, write bool, sh Sharing, overlap float64) {
	if !p.tlb.LaneHolds(&l.tlb, a) {
		// The TLB lane missed, so hit changed nothing.
		if p.pc != nil && p.pc.perAccess() {
			p.access(a, write, sh, overlap)
			return
		}
		if p.tlb.LaneRefill(&l.tlb, a) {
			p.chargeLocal(p.m.cfg.TLBMissNs)
		}
		if p.cache.LaneHit(&l.line, a, write) {
			return
		}
	}
	res := p.cache.AccessLaneMiss(&l.line, a, write)
	if res.WriteBack {
		p.chargeWriteback(res.WritebackAddr)
	}
	if !res.Hit {
		p.missCharge(a, write, sh, overlap)
	}
}

// bucketLanes returns b lanes backed by *store, growing it on demand; the
// backing array is retained across calls, so steady-state kernels
// allocate nothing. Kernels use one lane per digit bucket for the
// histogram and scatter streams: indexing lanes by bucket turns an
// access pattern that defeats any single lane — consecutive elements
// land in different buckets — back into per-bucket same-line and
// same-page runs.
func bucketLanes(store *[]lane, b int) []lane {
	if cap(*store) < b {
		*store = make([]lane, b)
		for i := range *store {
			(*store)[i].reset()
		}
	}
	return (*store)[:b]
}

// walkBlock touches each cache line of [a, a+bytes) once with stream
// overlap. The block's lane probes the TLB once per page run.
func (p *Proc) walkBlock(a Addr, bytes int, write bool, sh Sharing) {
	if bytes <= 0 {
		return
	}
	line := Addr(p.m.cfg.Cache.LineSize)
	ov := p.m.cfg.MissOverlap
	end := a + Addr(bytes)
	for la := p.cache.LineAddr(a); la < end; la += line {
		p.step(&p.lane, la, write, sh, ov)
	}
}

// LoadRange charges a sequential read of elements [lo, hi), touching
// each cache line once (a block transfer). The caller reads
// a.Data[lo:hi] directly for the values.
func (a *Array[T]) LoadRange(p *Proc, lo, hi int, sh Sharing) {
	p.walkBlock(a.Addr(lo), (hi-lo)*a.elemSize, false, sh)
}

// StoreRange charges a sequential write of elements [lo, hi).
func (a *Array[T]) StoreRange(p *Proc, lo, hi int, sh Sharing) {
	p.walkBlock(a.Addr(lo), (hi-lo)*a.elemSize, true, sh)
}

// GatherLoad charges dependent reads of elements idx[0..] with
// opsPerElem busy operations after each. Gathered reads are dependent
// accesses, so their misses do not overlap.
func (a *Array[T]) GatherLoad(p *Proc, idx []int64, sh Sharing, opsPerElem int) {
	opNs := float64(opsPerElem) * p.m.cfg.OpNs
	for _, ix := range idx {
		p.step(&p.lane, a.Addr(int(ix)), false, sh, 1)
		p.ComputeNs(opNs)
	}
}

// CountStream charges a radix counting pass over src.Data[lo:lo+n]: per
// element, one sequential key read (srcSh), the digit extraction
// (key>>shift)&mask, one dependent read of tbl[digit] (tblSh), the
// histogram increment tbl.Data[digit]++, and opsPerElem busy operations.
// It is the batched equivalent of sorts' countPass inner loop.
func (p *Proc) CountStream(src *Array[uint32], lo, n int, srcSh Sharing,
	shift uint, mask uint32, tbl *Array[int32], tblSh Sharing, opsPerElem int) {
	if n <= 0 {
		return
	}
	opNs := float64(opsPerElem) * p.m.cfg.OpNs
	ov := p.m.cfg.MissOverlap
	td := tbl.Data
	srcA, srcES := src.Addr(lo), Addr(src.elemSize)
	tl := bucketLanes(&p.tblLanes, int(mask)+1)
	for _, k := range src.Data[lo : lo+n] {
		if !p.hit(&p.lane, srcA, false) {
			p.miss(&p.lane, srcA, false, srcSh, ov)
		}
		d := int(k >> shift & mask)
		if ta := tbl.Addr(d); !p.hit(&tl[d], ta, false) {
			p.miss(&tl[d], ta, false, tblSh, 1)
		}
		td[d]++
		p.ComputeNs(opNs)
		srcA += srcES
	}
}

// PermuteStream charges a radix permutation pass: per element, one
// sequential key read from src (srcSh), the digit extraction, one
// dependent read of tbl[digit] (tblSh, the position-counter access), the
// position bump pos[digit]++, the key's scattered write to
// dst[pos] (dstSh), and opsPerElem busy operations. It is the batched
// equivalent of sorts' permutePass inner loop. Each bucket's writes walk
// its output run sequentially, so the scatter target's per-bucket lanes
// turn the scatter into mask+1 independent same-line runs.
func (p *Proc) PermuteStream(src, dst *Array[uint32], lo, n int,
	shift uint, mask uint32, tbl *Array[int32], pos []int64,
	srcSh, tblSh, dstSh Sharing, opsPerElem int) {
	if n <= 0 {
		return
	}
	opNs := float64(opsPerElem) * p.m.cfg.OpNs
	ov := p.m.cfg.MissOverlap
	dd := dst.Data
	srcA, srcES := src.Addr(lo), Addr(src.elemSize)
	tl := bucketLanes(&p.tblLanes, int(mask)+1)
	dl := bucketLanes(&p.dstLanes, int(mask)+1)
	for _, k := range src.Data[lo : lo+n] {
		if !p.hit(&p.lane, srcA, false) {
			p.miss(&p.lane, srcA, false, srcSh, ov)
		}
		d := int(k >> shift & mask)
		if ta := tbl.Addr(d); !p.hit(&tl[d], ta, false) {
			p.miss(&tl[d], ta, false, tblSh, 1)
		}
		at := pos[d]
		pos[d]++
		dd[at] = k
		if da := dst.Addr(int(at)); !p.hit(&dl[d], da, true) {
			p.miss(&dl[d], da, true, dstSh, ov)
		}
		p.ComputeNs(opNs)
		srcA += srcES
	}
}

// A SeqCursor charges the accesses of one sequential stream whose
// elements are consumed on demand rather than in a closed loop — the
// multiway merge's run heads and output head. Each cursor carries its
// own lane, so several concurrently open cursors (one per merge run) do
// not evict each other's lane state. Open with Array.OpenCursor; a
// cursor needs no closing.
type SeqCursor struct {
	p        *Proc
	base     Addr
	elemSize int
	sh       Sharing
	write    bool
	overlap  float64
	l        lane
}

// OpenCursor binds cur to this array's address range as a sequential
// stream of reads (write=false) or writes, whose misses overlap through
// the MSHRs.
func (a *Array[T]) OpenCursor(cur *SeqCursor, p *Proc, write bool, sh Sharing) {
	*cur = SeqCursor{p: p, base: a.base, elemSize: a.elemSize, sh: sh,
		write: write, overlap: p.m.cfg.MissOverlap}
	cur.l.reset()
}

// Access charges one access of element i through the cursor's lane.
func (cur *SeqCursor) Access(i int) {
	if a := cur.base + Addr(i*cur.elemSize); !cur.p.hit(&cur.l, a, cur.write) {
		cur.p.miss(&cur.l, a, cur.write, cur.sh, cur.overlap)
	}
}
