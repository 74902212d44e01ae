package cache

import "fmt"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Entries is the number of translations held. The MIPS R10000 has a
	// 64-entry TLB.
	Entries int
	// PageSize is the page size in bytes. Must be a power of two. The
	// Origin2000 default is 16 KB; the paper's experiments use 64 KB and
	// 256 KB pages.
	PageSize int
}

// Validate reports whether the configuration is usable.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: entries must be positive, got %d", c.Entries)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("tlb: page size %d must be a positive power of two", c.PageSize)
	}
	return nil
}

// TLBStats accumulates TLB event counts.
type TLBStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an untouched TLB.
func (s TLBStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// TLB is a fully-associative translation buffer model with FIFO
// replacement (the R10000's TLB uses random replacement; FIFO is a
// deterministic stand-in with the same capacity behavior and O(1) cost).
//
// The resident set is held in a small open-addressing hash table rather
// than a Go map: the translation probe runs once per simulated memory
// reference that misses its lane, and the map lookup dominated the
// simulator's host-time profile. Replacement decisions, miss counts and
// access counts are identical to the map-based model.
type TLB struct {
	cfg       TLBConfig
	pageShift uint
	// slots is the open-addressing (linear probing, backward-shift
	// deletion) hash set of resident page numbers; slotMask = len-1.
	// A slot is empty when it holds memoNone (no simulated address
	// shifts down to it), so the probe loop is one load and two
	// compares per step and the table is half the size of a
	// page+bool layout.
	slots    []uint64
	slotMask uint64
	slotBits uint
	// ring is the FIFO eviction order over resident pages.
	ring []uint64
	head int
	// accesses and misses are kept as direct fields (not a TLBStats) so
	// the counter bump in LaneHit stays cheap to inline; Stats assembles
	// the exported view.
	accesses uint64
	misses   uint64
}

// A TLBLane is a per-stream page memo for the machine's access step:
// each access stream of a kernel holds its own lane, so a stream's
// same-page run resolves in one inlined compare.
//
// Like a cache Lane, a TLBLane is self-validating, so it needs no
// registry and no invalidation hooks: it points at the hash slot its
// page was found in, and a hit requires that slot to still hold the
// page. Slots hold only resident pages, so a passing check proves the
// page is resident; an evicted, flushed or shifted page fails it and
// takes the probe, which recaptures the slot. TLB hits change no FIFO
// state, so a lane hit — which only counts the access — is exactly what
// a probed hit does.
type TLBLane struct {
	slot *uint64
}

// noPage is the slot an empty lane points at: it holds memoNone, which
// no simulated address translates to, so an empty lane never hits.
var noPage = memoNone

// Reset empties the lane; the next access through it takes the probe
// and recaptures.
func (l *TLBLane) Reset() { l.slot = &noPage }

// LaneHolds reports whether the lane names a's page, changing nothing:
// whether LaneHit would hit.
func (t *TLB) LaneHolds(l *TLBLane, a Addr) bool {
	return *l.slot == uint64(a)>>t.pageShift
}

// LaneHit counts a translation that hits the lane and reports whether it
// did. On false it has changed nothing, and the caller must complete the
// translation with LaneRefill. It is small enough to inline, so a lane
// hit costs no function call.
func (t *TLB) LaneHit(l *TLBLane, a Addr) bool {
	if *l.slot != uint64(a)>>t.pageShift {
		return false
	}
	t.accesses++
	return true
}

// LaneRefill completes a translation whose LaneHit returned false,
// refilling on a TLB miss, reports whether it missed, and recaptures the
// lane on the slot now holding a's page.
func (t *TLB) LaneRefill(l *TLBLane, a Addr) bool {
	t.accesses++
	page := uint64(a) >> t.pageShift
	i := t.find(page)
	miss := t.slots[i] != page
	if miss {
		// Place the page in the empty slot the probe found, then retire
		// the FIFO victim. Inserting before removing is safe — the hash
		// table's internal layout is not observable, and backward-shift
		// deletion preserves the probe-chain invariant either way — but
		// the deletion may shift the new page back, so its slot is
		// re-found.
		t.misses++
		t.slots[i] = page
		if len(t.ring) < t.cfg.Entries {
			t.ring = append(t.ring, page)
		} else {
			t.remove(t.ring[t.head])
			t.ring[t.head] = page
			t.head++
			if t.head == t.cfg.Entries {
				t.head = 0
			}
			if t.slots[i] != page {
				i = t.find(page)
			}
		}
	}
	l.slot = &t.slots[i]
	return miss
}

// NewTLB builds a TLB. It panics on invalid configuration; geometries
// come from static machine presets.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.PageSize {
		shift++
	}
	// Size the table at >= 4x entries (power of two) so probe chains stay
	// short even with the full resident set.
	bits := uint(3)
	for 1<<bits < 4*cfg.Entries {
		bits++
	}
	slots := make([]uint64, 1<<bits)
	for i := range slots {
		slots[i] = memoNone
	}
	return &TLB{
		cfg:       cfg,
		pageShift: shift,
		slots:     slots,
		slotMask:  uint64(1<<bits - 1),
		slotBits:  bits,
		ring:      make([]uint64, 0, cfg.Entries),
	}
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Stats returns a snapshot of the event counters.
func (t *TLB) Stats() TLBStats {
	return TLBStats{Accesses: t.accesses, Misses: t.misses}
}

// home returns page's preferred slot index (Fibonacci hashing).
func (t *TLB) home(page uint64) uint64 {
	return (page * 0x9E3779B97F4A7C15) >> (64 - t.slotBits)
}

// find probes for page and returns the slot holding it, or the empty
// slot ending its probe chain (where it belongs) when it is not
// resident.
func (t *TLB) find(page uint64) uint64 {
	i := t.home(page)
	for {
		pg := t.slots[i]
		if pg == page || pg == memoNone {
			return i
		}
		i = (i + 1) & t.slotMask
	}
}

// remove deletes page (present) from the resident set using
// backward-shift deletion, which keeps probe chains gap-free without
// tombstones.
func (t *TLB) remove(page uint64) {
	mask := t.slotMask
	i := t.find(page)
	j := i
	for {
		j = (j + 1) & mask
		pg := t.slots[j]
		if pg == memoNone {
			break
		}
		h := t.home(pg)
		// Entry at j may shift back to i only if its home position does
		// not lie strictly inside (i, j].
		if ((j - h) & mask) >= ((j - i) & mask) {
			t.slots[i] = pg
			i = j
		}
	}
	t.slots[i] = memoNone
}

// Access simulates a translation of address a and reports whether it
// missed.
func (t *TLB) Access(a Addr) bool {
	var l TLBLane
	return t.LaneRefill(&l, a)
}

// Flush drops all translations.
func (t *TLB) Flush() {
	for i := range t.slots {
		t.slots[i] = memoNone
	}
	t.ring = t.ring[:0]
	t.head = 0
}
