package machine

import (
	"math/rand"
	"testing"
)

// benchStep runs body on processor 0 of a scaled 4-proc machine whose
// 16 MB blocked array stands in for a sort's key or destination array.
func benchStep(b *testing.B, body func(p *Proc, arr *Array[uint32])) {
	m, err := New(Origin2000Scaled(4))
	if err != nil {
		b.Fatal(err)
	}
	benchOn(b, m, NewArrayBlocked[uint32](m, "keys", 1<<22), body)
}

func benchOn(b *testing.B, m *Machine, arr *Array[uint32], body func(p *Proc, arr *Array[uint32])) {
	b.ResetTimer()
	m.Run(func(p *Proc) {
		if p.ID == 0 {
			body(p, arr)
		}
	})
}

// The step benchmarks time one access through the lane step in each of
// its three regimes; ns/op is per access.

// BenchmarkStepLaneHit: both lanes hit (a same-line run).
func BenchmarkStepLaneHit(b *testing.B) {
	benchStep(b, func(p *Proc, arr *Array[uint32]) {
		a := arr.Addr(0)
		for i := 0; i < b.N; i++ {
			p.step(&p.lane, a, false, Private, 1)
		}
	})
}

// BenchmarkStepLaneMiss: the TLB lane hits but the cache lane misses on
// every access, and the cache probe hits (a rotation over the lines of
// one resident page).
func BenchmarkStepLaneMiss(b *testing.B) {
	benchStep(b, func(p *Proc, arr *Array[uint32]) {
		line := p.m.cfg.Cache.LineSize / arr.ElemSize()
		lines := p.m.cfg.TLB.PageSize / p.m.cfg.Cache.LineSize
		for i := 0; i < b.N; i++ {
			p.step(&p.lane, arr.Addr(i%lines*line), false, Private, 1)
		}
	})
}

// BenchmarkStepCacheMiss: scattered writes over a footprint far larger
// than cache and TLB, so nearly every access misses both and is priced.
func BenchmarkStepCacheMiss(b *testing.B) {
	benchStep(b, func(p *Proc, arr *Array[uint32]) {
		n := uint64(arr.Len())
		x := uint64(1)
		for i := 0; i < b.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.step(&p.lane, arr.Addr(int(x%n)), true, ConflictWrite, p.m.cfg.MissOverlap)
		}
	})
}

// BenchmarkPermuteStream times the radix permutation kernel (three
// steps per key: source, histogram, scatter target) over random keys
// with an 8-bit digit; ns/op is per key.
func BenchmarkPermuteStream(b *testing.B) {
	const n = 1 << 16
	m, err := New(Origin2000Scaled(4))
	if err != nil {
		b.Fatal(err)
	}
	src := NewArrayBlocked[uint32](m, "keys", n)
	dst := NewArrayBlocked[uint32](m, "dst", n)
	hist := NewArrayOnProc[int32](m, "hist", 256, 0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int64, 256)
	for i := range src.Data {
		src.Data[i] = rng.Uint32()
		counts[src.Data[i]&255]++
	}
	pos := make([]int64, 256)
	benchOn(b, m, src, func(p *Proc, src *Array[uint32]) {
		for i := 0; i < b.N; i += n {
			at := int64(0)
			for d, c := range counts {
				pos[d] = at
				at += c
			}
			p.PermuteStream(src, dst, 0, n, 0, 255, hist, pos,
				SharedRead, Private, ConflictWrite, 13)
		}
	})
}
