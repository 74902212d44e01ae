// Package memsys models the simulated machine's global physical address
// space: named regions carved out of a flat address range, divided into
// pages, with each page homed on a node according to a placement policy.
//
// The address space only deals in addresses and homes; data itself lives
// in ordinary Go slices owned by the machine layer. Placement matters
// because the NUMA cost of a miss depends on the home node of the page
// it falls on, and because the paper's experiments are sensitive to page
// size (the authors tune page size per data-set size).
//
// Home lookups run once per simulated cache miss, so they are hot on the
// host: HomeOf answers from a flat page→home table built at allocation
// time (one bounds check and one slice load), falling back to the
// region's placement closure only for the rare page whose bytes are not
// all homed on one node (a page straddling a blocked-partition boundary,
// or a region tail page whose alignment padding is homed on node 0).
// RegionOf keeps a last-region memo in front of its binary search, since
// lookups cluster in one region at a time.
//
// Allocation is a setup-time operation: regions must be allocated before
// the machine runs processors (concurrent HomeOf/RegionOf lookups are
// read-only and safe; allocation concurrent with lookups is not).
package memsys

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cache"
)

// Placement names a page-placement policy for a region.
type Placement int

const (
	// PlaceBlocked divides the region into equal contiguous partitions,
	// one per processor, homing each partition on its processor's node
	// (partition boundaries round to pages). This matches how the sorting
	// programs distribute their key arrays.
	PlaceBlocked Placement = iota
	// PlaceRoundRobin homes consecutive pages on consecutive nodes.
	PlaceRoundRobin
	// PlaceOnNode homes the entire region on a single node.
	PlaceOnNode
)

// String returns the policy name.
func (p Placement) String() string {
	switch p {
	case PlaceBlocked:
		return "blocked"
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceOnNode:
		return "on-node"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// mixedPage marks a page-table entry whose page does not have a single
// home node; lookups fall back to the region's placement closure.
const mixedPage int32 = -1

// Region is a contiguous allocation in the simulated address space.
type Region struct {
	name   string
	base   cache.Addr
	size   int
	homeOf func(offset int) int
	// spanHome returns the home node shared by every in-region byte
	// offset in [start, end], or mixedPage when the span covers more
	// than one home. Used to build the flat page table at alloc time.
	spanHome func(start, end int) int32
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Base returns the region's starting address.
func (r *Region) Base() cache.Addr { return r.base }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return r.size }

// Addr returns the address of byte offset within the region.
func (r *Region) Addr(offset int) cache.Addr {
	return r.base + cache.Addr(offset)
}

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a cache.Addr) bool {
	return a >= r.base && a < r.base+cache.Addr(r.size)
}

// HomeOfOffset returns the home node of the page containing the byte at
// offset.
func (r *Region) HomeOfOffset(offset int) int { return r.homeOf(offset) }

// AddressSpace allocates regions and answers home-node queries.
type AddressSpace struct {
	pageSize   int
	pageShift  uint
	nodes      int
	nodeOfProc func(proc int) int
	next       cache.Addr
	regions    []*Region // sorted by base
	rrNext     int       // next node for round-robin placement

	// pageHome is the flat page→home table, indexed by page number
	// (address >> pageShift); mixedPage entries fall back to the owning
	// region's closure. Built incrementally by alloc; read-only during
	// simulation.
	pageHome []int32
	// lastRegion memoizes the most recent RegionOf result. Atomic so
	// concurrent processor goroutines may share it; the memo only ever
	// caches a value the search would return, so lookups stay exact.
	lastRegion atomic.Pointer[Region]
}

// New builds an address space. pageSize must be a power of two; nodes is
// the node count; nodeOfProc maps a processor to its node (used by
// blocked placement).
func New(pageSize, nodes int, nodeOfProc func(int) int) (*AddressSpace, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("memsys: page size %d must be a positive power of two", pageSize)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("memsys: node count must be positive, got %d", nodes)
	}
	if nodeOfProc == nil {
		return nil, fmt.Errorf("memsys: nodeOfProc must not be nil")
	}
	shift := uint(0)
	for 1<<shift < pageSize {
		shift++
	}
	return &AddressSpace{
		pageSize:   pageSize,
		pageShift:  shift,
		nodes:      nodes,
		nodeOfProc: nodeOfProc,
		// Leave page 0 unused so the zero Addr never aliases a region.
		next: cache.Addr(pageSize),
	}, nil
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() int { return as.pageSize }

// align rounds n up to the next page boundary.
func (as *AddressSpace) align(n int) int {
	return (n + as.pageSize - 1) &^ (as.pageSize - 1)
}

func (as *AddressSpace) alloc(name string, size int, homeOf func(offset int) int, spanHome func(start, end int) int32) *Region {
	r := &Region{name: name, base: as.next, size: size, homeOf: homeOf, spanHome: spanHome}
	as.next += cache.Addr(as.align(size))
	as.regions = append(as.regions, r)
	as.indexRegion(r)
	return r
}

// indexRegion appends the region's pages to the flat page→home table.
// A page gets a concrete home only when every one of its byte addresses
// would resolve to that home through the legacy region walk; otherwise
// it is marked mixedPage and lookups take the slow path, so the table
// never changes a simulated result.
func (as *AddressSpace) indexRegion(r *Region) {
	firstPage := int(uint64(r.base) >> as.pageShift)
	// Pages before the region's first page that are not yet indexed are
	// holes (only page 0 in practice): outside every region, homed on 0.
	for len(as.pageHome) < firstPage {
		as.pageHome = append(as.pageHome, 0)
	}
	ps := as.pageSize
	nPages := as.align(r.size) / ps
	for pg := 0; pg < nPages; pg++ {
		start := pg * ps
		last := start + ps - 1
		var h int32
		switch {
		case last < r.size:
			h = r.spanHome(start, last)
		case r.spanHome(start, r.size-1) == 0:
			// Tail page with alignment padding: bytes beyond size lie
			// outside every region and resolve to node 0, so the page is
			// uniform only when its in-region bytes are homed on 0 too.
			h = 0
		default:
			h = mixedPage
		}
		as.pageHome = append(as.pageHome, h)
	}
}

// AllocBlocked allocates size bytes partitioned across nProcs processors:
// byte offsets in partition i (of size/nProcs bytes, page-rounded) are
// homed on processor i's node.
func (as *AddressSpace) AllocBlocked(name string, size, nProcs int) *Region {
	if nProcs <= 0 {
		panic(fmt.Sprintf("memsys: AllocBlocked(%q) with nProcs=%d", name, nProcs))
	}
	part := size / nProcs
	if part == 0 {
		part = 1
	}
	nodeOfProc := as.nodeOfProc
	procOf := func(offset int) int {
		p := offset / part
		if p >= nProcs {
			p = nProcs - 1
		}
		return p
	}
	homeOf := func(offset int) int {
		return nodeOfProc(procOf(offset))
	}
	spanHome := func(start, end int) int32 {
		pStart, pEnd := procOf(start), procOf(end)
		h := nodeOfProc(pStart)
		for q := pStart + 1; q <= pEnd; q++ {
			if nodeOfProc(q) != h {
				return mixedPage
			}
		}
		return int32(h)
	}
	return as.alloc(name, size, homeOf, spanHome)
}

// AllocRoundRobin allocates size bytes with consecutive pages homed on
// consecutive nodes.
func (as *AddressSpace) AllocRoundRobin(name string, size int) *Region {
	nodes := as.nodes
	pageSize := as.pageSize
	start := as.rrNext
	as.rrNext = (as.rrNext + as.align(size)/pageSize) % nodes
	homeOf := func(offset int) int {
		return (start + offset/pageSize) % nodes
	}
	spanHome := func(s, e int) int32 {
		p1, p2 := s/pageSize, e/pageSize
		if p1 != p2 {
			return mixedPage
		}
		return int32((start + p1) % nodes)
	}
	return as.alloc(name, size, homeOf, spanHome)
}

// AllocOnNode allocates size bytes entirely homed on node.
func (as *AddressSpace) AllocOnNode(name string, size, node int) *Region {
	if node < 0 || node >= as.nodes {
		panic(fmt.Sprintf("memsys: AllocOnNode(%q) node %d out of range [0,%d)", name, node, as.nodes))
	}
	homeOf := func(int) int { return node }
	spanHome := func(int, int) int32 { return int32(node) }
	return as.alloc(name, size, homeOf, spanHome)
}

// RegionOf returns the region containing a, or nil.
func (as *AddressSpace) RegionOf(a cache.Addr) *Region {
	if r := as.lastRegion.Load(); r != nil && r.Contains(a) {
		return r
	}
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].base > a
	})
	if i == 0 {
		return nil
	}
	r := as.regions[i-1]
	if !r.Contains(a) {
		return nil
	}
	as.lastRegion.Store(r)
	return r
}

// HomeOf returns the home node of the page containing a. Addresses
// outside any region are homed on node 0 (they arise only from
// line-rounding at region edges).
func (as *AddressSpace) HomeOf(a cache.Addr) int {
	pg := uint64(a) >> as.pageShift
	if pg >= uint64(len(as.pageHome)) {
		return 0
	}
	if h := as.pageHome[pg]; h >= 0 {
		return int(h)
	}
	return as.slowHomeOf(a)
}

// slowHomeOf is the legacy region-walk home lookup, used for mixedPage
// pages (and by the equivalence tests as the reference oracle).
func (as *AddressSpace) slowHomeOf(a cache.Addr) int {
	r := as.RegionOf(a)
	if r == nil {
		return 0
	}
	return r.homeOf(int(a - r.base))
}

// ReferenceHomeOf is the paranoid-mode home oracle: it resolves a
// through a fresh binary search over the region list and the owning
// region's placement closure, bypassing both the flat page→home table
// and the lastRegion memo. HomeOf must agree with it on every address
// (the differential checker compares them per miss).
func (as *AddressSpace) ReferenceHomeOf(a cache.Addr) int {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].base > a
	})
	if i == 0 {
		return 0
	}
	r := as.regions[i-1]
	if !r.Contains(a) {
		return 0
	}
	return r.homeOf(int(a - r.base))
}
