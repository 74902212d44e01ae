package memsys

import (
	"testing"

	"repro/internal/cache"
)

// TestPageTableMatchesClosures replays the flat page→home table against
// the legacy per-region homeOf closures for all three placement
// policies, with deliberately odd sizes so partitions straddle pages
// and tail pages carry alignment padding. Every byte address must
// resolve identically through HomeOf (flat table) and slowHomeOf
// (legacy region walk): the table is a cache of the closures, never a
// reinterpretation.
func TestPageTableMatchesClosures(t *testing.T) {
	as := testAS(t)
	ps := as.PageSize()
	regions := []*Region{
		// Partitions of 16000/7 bytes: not page multiples, so most pages
		// mix two partitions (and often two nodes).
		as.AllocBlocked("blocked-odd", 16000, 7),
		// Exact page multiple: every page uniform.
		as.AllocBlocked("blocked-even", 16*ps, 16),
		as.AllocRoundRobin("rr", 5*ps+123),
		as.AllocOnNode("onnode", 3*ps-1, 5),
		// One-byte region: tail-page padding dominates.
		as.AllocBlocked("tiny", 1, 4),
	}
	step := 64 // one probe per simulated cache line
	for _, r := range regions {
		for off := 0; off < r.Size(); off += step {
			a := r.Addr(off)
			want := as.slowHomeOf(a)
			if got := as.HomeOf(a); got != want {
				t.Fatalf("%s offset %d: HomeOf=%d, legacy walk=%d", r.Name(), off, got, want)
			}
			if want != r.HomeOfOffset(off) {
				t.Fatalf("%s offset %d: legacy walk=%d, closure=%d",
					r.Name(), off, want, r.HomeOfOffset(off))
			}
			// A page the table marks uniform must agree with every byte
			// of the page.
			if h := as.pageHome[uint64(a)>>as.pageShift]; h != mixedPage && int(h) != want {
				t.Fatalf("%s offset %d: page table=%d, legacy walk=%d", r.Name(), off, h, want)
			}
		}
	}
	// Alignment-padding addresses past each region's last byte but
	// inside its page-aligned span are outside every region: home 0.
	for _, r := range regions {
		last := r.Addr(r.Size() - 1)
		padEnd := cache.Addr(uint64(r.Base()) + uint64(as.align(r.Size())))
		for a := last + 1; a < padEnd; a += cache.Addr(step) {
			want := as.slowHomeOf(a)
			if got := as.HomeOf(a); got != want {
				t.Fatalf("%s pad addr %#x: HomeOf=%d, legacy walk=%d", r.Name(), uint64(a), got, want)
			}
		}
	}
}

// TestPageTableMixedPagesFallBack checks that a page whose bytes span
// two homes is marked mixed in the page table, and that HomeOf still
// resolves each byte through the legacy walk.
func TestPageTableMixedPagesFallBack(t *testing.T) {
	as := testAS(t)
	ps := as.PageSize()
	// Partition = ps/4, two procs per node: page 0 covers procs 0..3,
	// i.e. nodes 0,0,1,1 — mixed.
	r := as.AllocBlocked("quarter-page-parts", 4*ps, 16)
	if h := as.pageHome[uint64(r.Addr(0))>>as.pageShift]; h != mixedPage {
		t.Fatalf("page spanning two homes is marked uniform (home %d)", h)
	}
	if got := as.HomeOf(r.Addr(0)); got != 0 {
		t.Errorf("first quarter: home %d, want 0", got)
	}
	if got := as.HomeOf(r.Addr(ps / 2)); got != 1 {
		t.Errorf("third quarter: home %d, want 1", got)
	}
}
