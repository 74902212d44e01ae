package machine

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// streamTestState bundles one machine plus the arrays the equivalence
// workload runs over, so the stream side and the per-element side
// operate on structurally identical worlds.
type streamTestState struct {
	m    *Machine
	p    *Proc
	keys *Array[uint32]
	dst  *Array[uint32]
	hist *Array[int32]
}

func newStreamTestState(t *testing.T) *streamTestState {
	t.Helper()
	m := testMachine(t, 2)
	s := &streamTestState{
		m:    m,
		keys: NewArrayBlocked[uint32](m, "keys", 1<<13),
		dst:  NewArrayBlocked[uint32](m, "dst", 1<<13),
		hist: NewArrayOnProc[int32](m, "hist", 256, 0),
	}
	s.p = m.Proc(0)
	s.p.resetClock()
	rng := rand.New(rand.NewSource(7))
	for i := range s.keys.Data {
		s.keys.Data[i] = rng.Uint32()
	}
	return s
}

// check asserts both worlds are bit-identical: virtual clock, full
// ProcStats (time breakdown, phase accumulators, traffic, counter
// snapshot), and the raw cache/TLB counters.
func (s *streamTestState) check(t *testing.T, ref *streamTestState, step string) {
	t.Helper()
	if s.p.clock != ref.p.clock {
		t.Fatalf("%s: clock stream=%v ref=%v", step, s.p.clock, ref.p.clock)
	}
	if a, b := s.p.snapshot(), ref.p.snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats diverge\nstream: %+v\nref:    %+v", step, a, b)
	}
	if a, b := s.p.cache.Stats(), ref.p.cache.Stats(); a != b {
		t.Fatalf("%s: cache counters stream=%+v ref=%+v", step, a, b)
	}
	if a, b := s.p.tlb.Stats(), ref.p.tlb.Stats(); a != b {
		t.Fatalf("%s: TLB counters stream=%+v ref=%+v", step, a, b)
	}
	if !reflect.DeepEqual(s.dst.Data, ref.dst.Data) ||
		!reflect.DeepEqual(s.hist.Data, ref.hist.Data) {
		t.Fatalf("%s: data results diverge", step)
	}
}

// TestStreamEquivalence drives random workloads through the lane step —
// block walks, gathers, the stream kernels and cursors — on one machine
// and through the per-access reference path p.access on an identical
// second machine, asserting bit-identical simulated state after every
// round: same clock (float addition order included), same breakdowns,
// same cache/TLB replacement decisions and counters. This is the
// equivalence contract of DESIGN.md §13 checked end to end on live
// machines; FuzzAccessOracle covers the lane primitives underneath
// against the reference models. Lanes carry over from round to round,
// so every round also starts the stream side from lanes the intervening
// accesses may have invalidated.
func TestStreamEquivalence(t *testing.T) {
	sv := newStreamTestState(t) // stream side
	rv := newStreamTestState(t) // per-access side
	rng := rand.New(rand.NewSource(99))
	n := sv.keys.Len()
	seq := sv.m.cfg.MissOverlap
	line := sv.m.cfg.Cache.LineSize

	idx := make([]int64, 512)
	pos := make([]int64, 256)
	for round := 0; round < 24; round++ {
		lo := rng.Intn(n - 600)
		cnt := 1 + rng.Intn(500)
		ops := rng.Intn(9)
		shift := uint(rng.Intn(3) * 8)

		switch round % 6 {
		case 0: // block walks: a read sweep and a write sweep
			sv.keys.LoadRange(sv.p, lo, lo+cnt, SharedRead)
			sv.dst.StoreRange(sv.p, lo, lo+cnt, Private)
			for _, w := range []struct {
				arr   *Array[uint32]
				write bool
				sh    Sharing
			}{{rv.keys, false, SharedRead}, {rv.dst, true, Private}} {
				end := w.arr.Addr(lo + cnt)
				for a := w.arr.Addr(lo) &^ Addr(line-1); a < end; a += Addr(line) {
					rv.p.access(a, w.write, w.sh, seq)
				}
			}
		case 1: // a sequential read cursor with interleaved work
			var sr SeqCursor
			sv.keys.OpenCursor(&sr, sv.p, false, SharedRead)
			for i := lo; i < lo+cnt; i++ {
				sr.Access(i)
				sv.p.Compute(ops)
				rv.p.access(rv.keys.Addr(i), false, SharedRead, seq)
				rv.p.Compute(ops)
			}
		case 2: // gather over random indices
			for i := range idx {
				idx[i] = int64(rng.Intn(n))
			}
			sv.keys.GatherLoad(sv.p, idx, SharedRead, ops)
			for _, ix := range idx {
				rv.p.access(rv.keys.Addr(int(ix)), false, SharedRead, 1)
				rv.p.Compute(ops)
			}
		case 3: // radix counting pass
			clear(sv.hist.Data)
			clear(rv.hist.Data)
			sv.p.CountStream(sv.keys, lo, cnt, SharedRead, shift, 255,
				sv.hist, Private, ops)
			for i := lo; i < lo+cnt; i++ {
				rv.p.access(rv.keys.Addr(i), false, SharedRead, seq)
				d := int(rv.keys.Data[i] >> shift & 255)
				rv.p.access(rv.hist.Addr(d), false, Private, 1)
				rv.hist.Data[d]++
				rv.p.Compute(ops)
			}
		case 4: // radix permutation pass (positions spread over dst)
			for i := range pos {
				pos[i] = int64((i * 32) % n)
			}
			sPos := append([]int64(nil), pos...)
			rPos := append([]int64(nil), pos...)
			sv.p.PermuteStream(sv.keys, sv.dst, lo, min(cnt, 256*8),
				shift, 255, sv.hist, sPos, SharedRead, Private, ConflictWrite, ops)
			for i := lo; i < lo+min(cnt, 256*8); i++ {
				rv.p.access(rv.keys.Addr(i), false, SharedRead, seq)
				k := rv.keys.Data[i]
				d := int(k >> shift & 255)
				rv.p.access(rv.hist.Addr(d), false, Private, 1)
				at := rPos[d]
				rPos[d]++
				rv.dst.Data[at] = k
				rv.p.access(rv.dst.Addr(int(at)), true, ConflictWrite, seq)
				rv.p.Compute(ops)
			}
			if !reflect.DeepEqual(sPos, rPos) {
				t.Fatal("permute position tables diverge")
			}
		case 5: // interleaved cursors (the multiway-merge shape)
			var sr, sw SeqCursor
			sv.keys.OpenCursor(&sr, sv.p, false, SharedRead)
			sv.dst.OpenCursor(&sw, sv.p, true, Private)
			for i := 0; i < cnt; i++ {
				sr.Access(lo + i)
				sw.Access(lo + cnt - 1 - i)
				rv.p.access(rv.keys.Addr(lo+i), false, SharedRead, seq)
				rv.p.access(rv.dst.Addr(lo+cnt-1-i), true, Private, seq)
			}
		}
		// A few plain accesses and an invalidation between kernels
		// change cache and TLB state behind the stream side's lanes.
		for i := 0; i < 8; i++ {
			rnd := rng.Intn(n)
			sv.p.access(sv.keys.Addr(rnd), i&1 == 0, SharedRead, 1)
			rv.p.access(rv.keys.Addr(rnd), i&1 == 0, SharedRead, 1)
		}
		// Take a line away from under a lane — invalidate it, and every
		// few rounds flush every cache and TLB — then touch it again
		// through that lane: the lane must notice its line or page left.
		r := int64(rng.Intn(n))
		sv.keys.GatherLoad(sv.p, []int64{r}, SharedRead, 0)
		rv.p.access(rv.keys.Addr(int(r)), false, SharedRead, 1)
		rv.p.Compute(0)
		sv.p.InvalidateLine(sv.keys.Addr(int(r)))
		rv.p.InvalidateLine(rv.keys.Addr(int(r)))
		if round%4 == 3 {
			sv.m.ResetMemory()
			rv.m.ResetMemory()
		}
		sv.keys.GatherLoad(sv.p, []int64{r}, SharedRead, 0)
		rv.p.access(rv.keys.Addr(int(r)), false, SharedRead, 1)
		rv.p.Compute(0)
		sv.check(t, rv, "round")
	}
}

// TestStreamKernelsZeroAlloc pins the O(1)-allocation contract of the
// access step: once a processor's lane scratch has grown to the radix
// width (the warm-up run AllocsPerRun performs), every kernel call,
// block walk and cursor access allocates nothing. This is the CI
// allocation-regression guard for the hot simulation paths.
func TestStreamKernelsZeroAlloc(t *testing.T) {
	m := testMachine(t, 2)
	keys := NewArrayBlocked[uint32](m, "keys", 1<<14)
	dst := NewArrayBlocked[uint32](m, "dst", 1<<14)
	hist := NewArrayOnProc[int32](m, "hist", 256, 0)
	p := m.Proc(0)
	p.resetClock()
	idx := []int64{3, 99, 7, 4000, 7, 8, 9000, 2}
	pos := make([]int64, 256)
	allocs := testing.AllocsPerRun(50, func() {
		keys.LoadRange(p, 0, 512, SharedRead)
		dst.StoreRange(p, 0, 512, Private)
		keys.GatherLoad(p, idx, SharedRead, 1)
		p.CountStream(keys, 0, 512, SharedRead, 0, 255, hist, Private, 8)
		for i := range pos {
			pos[i] = int64(i * 16)
		}
		p.PermuteStream(keys, dst, 0, 512, 0, 255, hist, pos,
			SharedRead, Private, ConflictWrite, 13)
		var cur SeqCursor
		keys.OpenCursor(&cur, p, false, SharedRead)
		for i := 0; i < 64; i++ {
			cur.Access(i)
		}
	})
	if allocs != 0 {
		t.Errorf("stream kernels allocate %.1f/op in steady state, want 0", allocs)
	}
}

// TestArenaReuse proves Release recycles array backing memory: after a
// machine releases its slabs, a second machine allocating the same
// array footprint gets the same backing slab back from the pool (LIFO),
// and its contents arrive zeroed despite the first machine's writes.
func TestArenaReuse(t *testing.T) {
	m1 := testMachine(t, 2)
	a1 := NewArrayBlocked[uint32](m1, "k", 1<<12)
	for i := range a1.Data {
		a1.Data[i] = 0xDEADBEEF
	}
	p1 := unsafe.Pointer(&a1.Data[0])
	m1.Release()

	m2 := testMachine(t, 2)
	a2 := NewArrayBlocked[uint32](m2, "k", 1<<12)
	if unsafe.Pointer(&a2.Data[0]) != p1 {
		t.Error("released slab was not reused for an identical allocation")
	}
	for i, v := range a2.Data {
		if v != 0 {
			t.Fatalf("reused slab not zeroed at %d: %#x", i, v)
		}
	}
	m2.Release()
}

// TestGrowAmortized asserts Grow's capacity doubling: growing an array
// one element at a time reallocates O(log n) times, not O(n) times, and
// in-capacity growth neither moves the backing array nor loses data.
func TestGrowAmortized(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 1<<16, 0)
	reallocs := 0
	var last *uint32
	for n := 1; n <= 1<<14; n++ {
		a.Grow(n)
		a.Data[n-1] = uint32(n)
		if &a.Data[0] != last {
			reallocs++
			last = &a.Data[0]
		}
	}
	if reallocs > 16 {
		t.Errorf("growing to 2^14 one element at a time reallocated %d times, want O(log n)", reallocs)
	}
	for n := 1; n <= 1<<14; n++ {
		if a.Data[n-1] != uint32(n) {
			t.Fatalf("Grow lost element %d", n-1)
		}
	}
}
