package sorts

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// chunkPlan captures, for one radix pass, where every processor's
// bucket-major send buffer scatters into the globally partitioned output
// array. In the paper's MPI and SHMEM programs every processor computes
// the plan locally and redundantly from the allgathered histograms, so
// senders know exactly what to send and receivers know exactly what to
// expect — one of the simplifications the paper credits to having all
// histogram data locally. The model charges that work to every
// processor (computeOps), but the host builds each plan once and shares
// it among the run's processors (planSet).
type chunkPlan struct {
	n, procs, buckets int
	// gStart[d] is the global output index where bucket d begins.
	gStart []int64
	// rank[i][d] is processor i's key count rank within bucket d
	// (exclusive prefix over processors).
	rank [][]int64
	// bufPos[i][d] is bucket d's offset inside processor i's bucket-major
	// send buffer (exclusive prefix over buckets of i's histogram).
	bufPos [][]int64
	// hists is the plan's own copy of the per-processor histograms.
	hists [][]int32
}

// chunk is one contiguous run of keys moving from a source processor's
// send buffer to a destination processor's output partition.
type chunk struct {
	// srcOff is the offset within the source's send buffer.
	srcOff int
	// dstOff is the offset within the destination's partition.
	dstOff int
	// count is the number of keys.
	count int
	// bucket is the radix digit the run belongs to (diagnostics).
	bucket int
}

// newChunkPlan builds the plan for n total keys over the given per-
// processor histograms, copying them.
func newChunkPlan(n int, hists [][]int32) *chunkPlan {
	P := len(hists)
	B := len(hists[0])
	pl := &chunkPlan{n: n, procs: P, buckets: B}
	pl.gStart = make([]int64, B)
	pl.rank = make([][]int64, P)
	pl.bufPos = make([][]int64, P)
	pl.hists = make([][]int32, P)
	rank := make([]int64, P*B)
	bufPos := make([]int64, P*B)
	counts := make([]int32, P*B)
	for i := 0; i < P; i++ {
		pl.rank[i] = rank[i*B : (i+1)*B]
		pl.bufPos[i] = bufPos[i*B : (i+1)*B]
		pl.hists[i] = counts[i*B : (i+1)*B]
		copy(pl.hists[i], hists[i])
	}
	// rank: exclusive scan over processors per bucket; total per bucket.
	totals := make([]int64, B)
	for d := 0; d < B; d++ {
		var run int64
		for i := 0; i < P; i++ {
			pl.rank[i][d] = run
			run += int64(hists[i][d])
		}
		totals[d] = run
	}
	// gStart: exclusive scan over buckets.
	var run int64
	for d := 0; d < B; d++ {
		pl.gStart[d] = run
		run += totals[d]
	}
	// bufPos: per-processor bucket-major layout.
	for i := 0; i < P; i++ {
		var off int64
		for d := 0; d < B; d++ {
			pl.bufPos[i][d] = off
			off += int64(hists[i][d])
		}
	}
	return pl
}

// computeOps returns the abstract operation count of building the plan
// (charged to each processor, since each builds it redundantly): the
// rank scan over all processors' histograms dominates.
func (pl *chunkPlan) computeOps() int {
	return pl.procs*pl.buckets + 2*pl.buckets
}

// partition returns dst's output partition [plo, phi) and the buckets
// [dlo, dhi) whose global ranges can overlap it: dlo is the bucket
// holding index plo, and every bucket from dhi on starts at or past phi.
func (pl *chunkPlan) partition(dst int) (plo, phi int64, dlo, dhi int) {
	plo = int64(dst) * int64(pl.n) / int64(pl.procs)
	phi = int64(dst+1) * int64(pl.n) / int64(pl.procs)
	dlo = sort.Search(pl.buckets, func(d int) bool { return pl.gStart[d] > plo }) - 1
	dhi = dlo + sort.Search(pl.buckets-dlo, func(k int) bool { return pl.gStart[dlo+k] >= phi })
	return plo, phi, dlo, dhi
}

// clip returns the part of src's bucket-d run that lands in [plo, phi),
// or ok=false when none does.
func (pl *chunkPlan) clip(src, d int, plo, phi int64) (ch chunk, ok bool) {
	cs := pl.gStart[d] + pl.rank[src][d]
	s, e := max(cs, plo), min(cs+int64(pl.hists[src][d]), phi)
	if e <= s {
		return chunk{}, false
	}
	return chunk{
		srcOff: int(pl.bufPos[src][d] + (s - cs)),
		dstOff: int(s - plo),
		count:  int(e - s),
		bucket: d,
	}, true
}

// sendChunks returns the contiguous runs processor src contributes to
// processor dst's partition, in bucket order.
func (pl *chunkPlan) sendChunks(src, dst int) []chunk {
	plo, phi, dlo, dhi := pl.partition(dst)
	var out []chunk
	for d := dlo; d < dhi; d++ {
		if ch, ok := pl.clip(src, d, plo, phi); ok {
			out = append(out, ch)
		}
	}
	return out
}

// numChunks returns len(pl.sendChunks(src, dst)) without building the
// chunks.
func (pl *chunkPlan) numChunks(src, dst int) int {
	plo, phi, dlo, dhi := pl.partition(dst)
	n := 0
	for d := dlo; d < dhi; d++ {
		if _, ok := pl.clip(src, d, plo, phi); ok {
			n++
		}
	}
	return n
}

// planSet shares a run's chunk plans among its processors, one slot per
// radix pass. The first processor to reach a pass builds the plan from
// its own copy of the allgathered histograms; every processor, that one
// included, must hold histograms equal to the plan's. A broken
// collective therefore panics instead of hiding behind the shared plan.
type planSet struct {
	slots []planSlot
}

type planSlot struct {
	once sync.Once
	plan *chunkPlan
}

func newPlanSet(passes int) *planSet {
	return &planSet{slots: make([]planSlot, passes)}
}

// get returns pass's plan for n keys over hists, building it on the
// first call. It panics, naming the row, when hists differs from the
// histograms the plan was built from. Callers still charge
// plan.computeOps() to their processor.
func (s *planSet) get(pass, n int, hists [][]int32) *chunkPlan {
	sl := &s.slots[pass]
	sl.once.Do(func() { sl.plan = newChunkPlan(n, hists) })
	pl := sl.plan
	if len(hists) != pl.procs {
		panic(fmt.Sprintf("sorts: pass %d: %d histogram rows, the shared chunk plan has %d",
			pass, len(hists), pl.procs))
	}
	for i, row := range hists {
		if !slices.Equal(row, pl.hists[i]) {
			panic(fmt.Sprintf("sorts: pass %d: histogram row %d disagrees with the shared chunk plan",
				pass, i))
		}
	}
	return pl
}
