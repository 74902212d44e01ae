package cache

import (
	"math/rand"
	"testing"
)

// laneTLB is the split TLB lane protocol the machine's access step
// uses: LaneHit, and LaneRefill when it declines.
func laneTLB(t *TLB, l *TLBLane, a Addr) (hit, miss bool) {
	if t.LaneHit(l, a) {
		return true, false
	}
	return false, t.LaneRefill(l, a)
}

// laneCache is the split cache lane protocol: LaneHit, and
// AccessLaneMiss when it declines.
func laneCache(c *Cache, l *Lane, a Addr, write bool) AccessResult {
	if c.LaneHit(l, a, write) {
		return AccessResult{Hit: true}
	}
	return c.AccessLaneMiss(l, a, write)
}

// TestLaneEquivalence drives two identical cache+TLB pairs through the
// same random access sequence — one via plain Access, one with every
// access routed through per-stream lanes — and requires bit-identical
// outcomes and counters. The lane paths must be pure accelerators: same
// hit/miss decisions, same replacement state, same statistics.
func TestLaneEquivalence(t *testing.T) {
	cfgs := []Config{
		{Size: 4096, LineSize: 64, Ways: 2},
		{Size: 8192, LineSize: 32, Ways: 4},
	}
	tcfg := TLBConfig{Entries: 8, PageSize: 1024}
	for _, cfg := range cfgs {
		ref := New(cfg)
		fast := New(cfg)
		refTLB := NewTLB(tcfg)
		fastTLB := NewTLB(tcfg)

		// Three lanes mimic the sorts' three interleaved streams
		// (sequential source, table, scattered target).
		var lanes [3]Lane
		var tlbLanes [3]TLBLane
		for i := range lanes {
			lanes[i].Reset()
			tlbLanes[i].Reset()
		}

		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200000; i++ {
			lane := rng.Intn(3)
			var a Addr
			switch lane {
			case 0: // sequential sweep with same-line runs
				a = Addr((i / 3 * 4) % 65536)
			case 1: // small hot table
				a = Addr(65536 + rng.Intn(64)*4)
			case 2: // scattered target
				a = Addr(131072 + rng.Intn(16384)*4)
			}
			write := rng.Intn(4) == 0

			wantTLB := refTLB.Access(a)
			if _, gotTLB := laneTLB(fastTLB, &tlbLanes[lane], a); wantTLB != gotTLB {
				t.Fatalf("cfg %+v step %d addr %#x: tlb miss ref=%v lane=%v", cfg, i, a, wantTLB, gotTLB)
			}

			want := ref.Access(a, write)
			if got := laneCache(fast, &lanes[lane], a, write); want != got {
				t.Fatalf("cfg %+v step %d addr %#x write=%v: ref=%+v lane=%+v", cfg, i, a, write, want, got)
			}

			// Occasionally interleave plain accesses and invalidations on
			// the lane side to prove lanes self-heal after external state
			// changes.
			if rng.Intn(64) == 0 {
				b := Addr(rng.Intn(1 << 18))
				w := rng.Intn(2) == 0
				rw := ref.Access(b, w)
				fw := fast.Access(b, w)
				if rw != fw {
					t.Fatalf("step %d interleave addr %#x: ref=%+v fast=%+v", i, b, rw, fw)
				}
				refTLB.Access(b)
				fastTLB.Access(b)
			}
			if rng.Intn(512) == 0 {
				b := Addr(rng.Intn(1 << 18))
				rp, rd := ref.Invalidate(b)
				fp, fd := fast.Invalidate(b)
				if rp != fp || rd != fd {
					t.Fatalf("step %d invalidate addr %#x: ref=(%v,%v) fast=(%v,%v)", i, b, rp, rd, fp, fd)
				}
			}
			if rng.Intn(4096) == 0 {
				if rd, fd := ref.Flush(), fast.Flush(); rd != fd {
					t.Fatalf("step %d flush: ref dirty=%d fast dirty=%d", i, rd, fd)
				}
				refTLB.Flush()
				fastTLB.Flush()
			}
		}
		if rs, fs := ref.Stats(), fast.Stats(); rs != fs {
			t.Fatalf("cfg %+v: cache stats diverged: ref=%+v fast=%+v", cfg, rs, fs)
		}
		if rs, fs := refTLB.Stats(), fastTLB.Stats(); rs != fs {
			t.Fatalf("cfg %+v: tlb stats diverged: ref=%+v fast=%+v", cfg, rs, fs)
		}
	}
}

// tlbTwins runs a lane-driven TLB beside a plain one on the same
// sequence, so each self-validation case can require identical miss
// decisions and counters.
type tlbTwins struct {
	t           *testing.T
	lane, plain *TLB
	l           TLBLane
}

func newTLBTwins(t *testing.T, entries int) *tlbTwins {
	cfg := TLBConfig{Entries: entries, PageSize: 1024}
	tw := &tlbTwins{t: t, lane: NewTLB(cfg), plain: NewTLB(cfg)}
	tw.l.Reset()
	return tw
}

// viaLane translates page pg through the lane on one TLB and plain
// Access on the other, requiring the same miss decision, and reports
// whether the lane hit.
func (tw *tlbTwins) viaLane(pg uint64) bool {
	tw.t.Helper()
	a := Addr(pg << tw.lane.pageShift)
	hit, miss := laneTLB(tw.lane, &tw.l, a)
	if want := tw.plain.Access(a); miss != want {
		tw.t.Fatalf("page %d: lane miss=%v, plain Access miss=%v", pg, miss, want)
	}
	return hit
}

// other translates page pg through plain Access on both TLBs.
func (tw *tlbTwins) other(pg uint64) {
	tw.t.Helper()
	a := Addr(pg << tw.lane.pageShift)
	if got, want := tw.lane.Access(a), tw.plain.Access(a); got != want {
		tw.t.Fatalf("page %d: miss=%v on the lane TLB, %v on the plain one", pg, got, want)
	}
}

func (tw *tlbTwins) flush() { tw.lane.Flush(); tw.plain.Flush() }

func (tw *tlbTwins) checkCounts() {
	tw.t.Helper()
	if got, want := tw.lane.Stats(), tw.plain.Stats(); got != want {
		tw.t.Fatalf("counters diverged: lane TLB %+v, plain %+v", got, want)
	}
}

// collidingPages returns pages a and b that share a home slot of t, and
// a page c whose home is neither that slot nor the next.
func collidingPages(t *TLB) (a, b, c uint64) {
	a = 1
	h := t.home(a)
	for b = a + 1; t.home(b) != h; b++ {
	}
	for c = b + 1; t.home(c) == h || t.home(c) == (h+1)&t.slotMask; c++ {
	}
	return a, b, c
}

// TestTLBLaneSelfValidates covers every way a TLB lane's page can leave
// or move within the resident set. In each case the lane must decline
// exactly when its slot no longer holds its page, take the probe, and
// leave miss decisions and counters identical to plain Access.
func TestTLBLaneSelfValidates(t *testing.T) {
	t.Run("fifo-eviction", func(t *testing.T) {
		tw := newTLBTwins(t, 4)
		tw.viaLane(1)
		if !tw.viaLane(1) {
			t.Fatal("lane missed its resident page")
		}
		for pg := uint64(2); pg <= 5; pg++ {
			tw.other(pg) // page 1 is the FIFO head: the fourth refill evicts it
		}
		if tw.viaLane(1) {
			t.Fatal("lane hit a page FIFO evicted")
		}
		if !tw.viaLane(1) {
			t.Fatal("lane did not recapture after the refill")
		}
		tw.checkCounts()
	})
	t.Run("flush", func(t *testing.T) {
		tw := newTLBTwins(t, 4)
		tw.viaLane(1)
		tw.flush()
		if tw.viaLane(1) {
			t.Fatal("lane hit after Flush")
		}
		tw.checkCounts()
	})
	t.Run("backward-shift", func(t *testing.T) {
		tw := newTLBTwins(t, 2)
		a, b, c := collidingPages(tw.lane)
		tw.other(a)
		tw.viaLane(b) // b probes past a into the next slot; the lane captures it
		if tw.l.slot != &tw.lane.slots[(tw.lane.home(b)+1)&tw.lane.slotMask] {
			t.Fatal("setup: b did not land in the slot after its home")
		}
		if !tw.viaLane(b) {
			t.Fatal("lane missed its resident page")
		}
		// c's refill evicts a, and backward-shift deletion moves b into
		// a's slot: b stays resident, in another slot.
		tw.other(c)
		if tw.lane.slots[tw.lane.home(b)] != b {
			t.Fatal("setup: b was not shifted back to its home slot")
		}
		if tw.viaLane(b) {
			t.Fatal("lane hit through a slot its page has left")
		}
		if !tw.viaLane(b) {
			t.Fatal("lane did not recapture the shifted slot")
		}
		tw.checkCounts()
	})
	t.Run("reinsert-same-slot", func(t *testing.T) {
		tw := newTLBTwins(t, 2)
		tw.viaLane(1)
		tw.other(2)
		tw.other(3) // evicts page 1
		tw.other(1) // refills page 1 into its home slot, the lane's slot
		if *tw.l.slot != 1 {
			t.Fatal("setup: page 1 was not re-inserted into the lane's slot")
		}
		// The page is resident again in the slot the lane names, so a
		// lane hit is exact (and plain Access hits too).
		if !tw.viaLane(1) {
			t.Fatal("lane missed a page re-inserted into its slot")
		}
		tw.checkCounts()
	})
}
