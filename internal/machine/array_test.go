package machine

import (
	"testing"
	"testing/quick"
)

func TestArrayReserveGrow(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 1000, 0)
	if a.Len() != 0 {
		t.Fatalf("fresh reserve has len %d", a.Len())
	}
	base := a.Addr(0)
	a.Grow(10)
	if a.Len() != 10 {
		t.Errorf("after Grow(10): len %d", a.Len())
	}
	a.Data[9] = 42
	a.Grow(500)
	if a.Len() != 500 {
		t.Errorf("after Grow(500): len %d", a.Len())
	}
	if a.Data[9] != 42 {
		t.Error("Grow lost data")
	}
	if a.Addr(0) != base {
		t.Error("Grow moved the simulated base address")
	}
	// Shrinking requests are no-ops.
	a.Grow(5)
	if a.Len() != 500 {
		t.Errorf("Grow(5) shrank to %d", a.Len())
	}
}

func TestArrayGrowBeyondCapacityPanics(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayReserve[uint32](m, "r", 100, 0)
	defer func() {
		if recover() == nil {
			t.Error("Grow past capacity did not panic")
		}
	}()
	a.Grow(101)
}

// TestArrayLoadStoreRoundTrip checks that the charging API leaves Data
// to the caller — a value stored beside a write cursor's access reads
// back after a gather and a range load — and that each call charges
// exactly the accesses it names: one per cursor access or gathered
// index, one per cache line of a range.
func TestArrayLoadStoreRoundTrip(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "x", 128, 0)
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		accesses := func(charge func()) uint64 {
			before := p.cache.Stats().Accesses
			charge()
			return p.cache.Stats().Accesses - before
		}
		var w SeqCursor
		a.OpenCursor(&w, p, true, Private)
		if n := accesses(func() { a.Data[7] = 99; w.Access(7) }); n != 1 {
			t.Errorf("cursor access charged %d accesses, want 1", n)
		}
		if n := accesses(func() { a.GatherLoad(p, []int64{7, 8, 7}, Private, 1) }); n != 3 {
			t.Errorf("GatherLoad of 3 indices charged %d accesses, want 3", n)
		}
		lines := uint64(a.Bytes(a.Len()) / p.m.cfg.Cache.LineSize)
		if n := accesses(func() { a.LoadRange(p, 0, a.Len(), Private) }); n != lines {
			t.Errorf("LoadRange charged %d accesses, want one per line (%d)", n, lines)
		}
		if n := accesses(func() { a.StoreRange(p, 5, 5, Private) }); n != 0 {
			t.Errorf("empty StoreRange charged %d accesses", n)
		}
		if a.Data[7] != 99 {
			t.Errorf("Data[7] = %d, want 99", a.Data[7])
		}
	})
}

func TestSeqAccessCheaperThanScattered(t *testing.T) {
	// The same miss pattern costs less through a sequential cursor (MSHR
	// overlap) than through a gather (dependent accesses).
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "seq", 1<<16, 0)
	b := NewArrayOnProc[uint32](m, "scat", 1<<16, 0)
	var seqCost, scatCost float64
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		before := p.Stats().Breakdown.LMem
		var r SeqCursor
		a.OpenCursor(&r, p, false, Private)
		var idx []int64
		for i := 0; i < a.Len(); i += 32 {
			r.Access(i)
			idx = append(idx, int64(i))
		}
		seqCost = p.Stats().Breakdown.LMem - before
		before = p.Stats().Breakdown.LMem
		b.GatherLoad(p, idx, Private, 0)
		scatCost = p.Stats().Breakdown.LMem - before
	})
	if seqCost >= scatCost {
		t.Errorf("stream cost (%v) should be below scattered cost (%v)", seqCost, scatCost)
	}
}

func TestInvalidateRange(t *testing.T) {
	m := testMachine(t, 2)
	a := NewArrayOnProc[uint32](m, "x", 1024, 0)
	m.Run(func(p *Proc) {
		if p.ID != 0 {
			return
		}
		a.LoadRange(p, 0, 1024, Private)
		if !p.CacheContains(a.Addr(0)) || !p.CacheContains(a.Addr(1000)) {
			t.Fatal("warmup failed")
		}
		p.InvalidateRange(a.Addr(0), a.Bytes(512))
		if p.CacheContains(a.Addr(0)) {
			t.Error("invalidated line still present")
		}
		if !p.CacheContains(a.Addr(1000)) {
			t.Error("line outside the range was dropped")
		}
		p.InvalidateRange(a.Addr(0), 0) // no-op
	})
}

func TestBarrierPropertyClocksEqualAfterwards(t *testing.T) {
	// Property: whatever work precedes a barrier, all clocks agree right
	// after it.
	f := func(work [4]uint16) bool {
		m := testMachine(t, 4)
		clocks := make([]float64, 4)
		m.Run(func(p *Proc) {
			p.Compute(int(work[p.ID]))
			m.Barrier(p)
			clocks[p.ID] = p.Now()
		})
		for i := 1; i < 4; i++ {
			if clocks[i] != clocks[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestScatteredContentionLoadDependence(t *testing.T) {
	cfg := Origin2000Scaled(64)
	light := cfg.scatteredContention(64, 1024)           // tiny burst
	heavy := cfg.scatteredContention(64, cfg.Cache.Size) // cache-scale scatter
	if light >= heavy {
		t.Errorf("light-load factor (%v) should be below heavy-load (%v)", light, heavy)
	}
	if light <= 1 {
		t.Errorf("floored light-load factor should still exceed 1, got %v", light)
	}
	over := cfg.scatteredContention(64, 100*cfg.Cache.Size)
	if over != heavy {
		t.Errorf("load should saturate at 1: %v vs %v", over, heavy)
	}
}

func TestBulkTransferZeroBytes(t *testing.T) {
	m := testMachine(t, 2)
	res := m.Run(func(p *Proc) {
		if p.ID == 0 {
			p.BulkTransfer(0, 0, 0, false)
		}
	})
	if res.PerProc[0].Breakdown.Total() != 0 {
		t.Error("zero-byte transfer charged time")
	}
}

func TestResultAggregates(t *testing.T) {
	m := testMachine(t, 4)
	res := m.Run(func(p *Proc) {
		p.Compute(100 * (p.ID + 1))
	})
	maxB := res.MaxBreakdown()
	if !closeTo(maxB.Busy, 400*m.Config().OpNs) {
		t.Errorf("MaxBreakdown busy = %v", maxB.Busy)
	}
	tot := res.TotalBreakdown()
	if !closeTo(tot.Busy, (100+200+300+400)*m.Config().OpNs) {
		t.Errorf("TotalBreakdown busy = %v", tot.Busy)
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{Busy: 1, LMem: 2, RMem: 3, Sync: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Mem() != 5 {
		t.Errorf("Mem = %v", b.Mem())
	}
	var sum Breakdown
	sum.Add(b)
	sum.Add(b)
	if sum.Total() != 20 {
		t.Errorf("Add total = %v", sum.Total())
	}
}
