package sorts

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/machine"
)

// selectSamples picks count evenly spaced keys from the locally sorted
// run arr.Data[lo:lo+n], charging the reads.
func selectSamples(p *machine.Proc, arr *machine.Array[uint32], lo, n, count int) []uint32 {
	if count > n {
		count = n
	}
	out := make([]uint32, count)
	idx := make([]int64, count)
	for j := 0; j < count; j++ {
		// Position (j+1)*n/(count+1): interior points, avoiding the ends.
		i := lo + (j+1)*n/(count+1)
		idx[j] = int64(i)
		out[j] = arr.Data[i]
	}
	// One gather-stream call charges all sample reads (3 ops each for the
	// index arithmetic), replacing count per-element Load/Compute pairs.
	arr.GatherLoad(p, idx, machine.Private, 3)
	return out
}

// mergeSamplesCharged sorts a concatenation of `ways` already-sorted
// runs, charging only a multiway merge (n log ways) — the samples each
// process publishes are pre-sorted, so collectors merge rather than
// re-sort.
func mergeSamplesCharged(p *machine.Proc, s []uint32, ways int) {
	slices.Sort(s)
	chargeMerge(p, len(s), ways)
}

// chargeMerge charges the multiway merge of n samples in `ways` sorted
// runs.
func chargeMerge(p *machine.Proc, n, ways int) {
	if n > 1 && ways > 1 {
		p.Compute(2 * n * ilog2(ways))
	}
}

// samplePool sorts a run's allgathered sample pool once on the host.
// Every process of the paper's MPI and SHMEM sample sorts merges its own
// copy of the pool; each is still charged that merge, and each must have
// gathered exactly the pool that was sorted, so a broken collective
// panics instead of hiding behind the shared pool.
type samplePool struct {
	once     sync.Once
	gathered []uint32
	sorted   []uint32
}

// merge returns the sorted concatenation of parts, charging p the merge
// of `ways` sorted runs. The first call sorts, and every call checks
// that its parts concatenate to the pool that was sorted.
func (s *samplePool) merge(p *machine.Proc, ways int, parts ...[]uint32) []uint32 {
	s.once.Do(func() {
		s.gathered = slices.Concat(parts...)
		s.sorted = slices.Clone(s.gathered)
		slices.Sort(s.sorted)
	})
	at := 0
	for _, part := range parts {
		if len(part) > len(s.gathered)-at || !slices.Equal(part, s.gathered[at:at+len(part)]) {
			panic(fmt.Sprintf("sorts: processor %d gathered samples that differ from the sorted pool", p.ID))
		}
		at += len(part)
	}
	if at != len(s.gathered) {
		panic(fmt.Sprintf("sorts: processor %d gathered %d samples, the sorted pool has %d",
			p.ID, at, len(s.gathered)))
	}
	chargeMerge(p, at, ways)
	return s.sorted
}

// splittersFrom picks procs-1 splitters from the sorted pool of all
// samples by regular sampling.
func splittersFrom(p *machine.Proc, sortedAll []uint32, procs int) []uint32 {
	spl := make([]uint32, procs-1)
	for j := 1; j < procs; j++ {
		spl[j-1] = sortedAll[j*len(sortedAll)/procs]
	}
	p.Compute(2 * procs)
	return spl
}

// boundariesOf computes, for the locally sorted run arr.Data[lo:lo+n]
// and the given splitters, the procs+1 boundary offsets (relative to lo):
// keys [b[j], b[j+1]) go to destination j. Runs of keys equal to a
// repeated splitter are spread evenly across the tied destinations
// (equal keys may legally land on any of them), which keeps heavily
// duplicated inputs — the paper's zero distribution — load balanced.
func boundariesOf(p *machine.Proc, arr *machine.Array[uint32], lo, n int, splitters []uint32) []int64 {
	procs := len(splitters) + 1
	b := make([]int64, procs+1)
	b[procs] = int64(n)
	for j, s := range splitters {
		// Binary search for the first key >= s.
		idx := sort.Search(n, func(i int) bool { return arr.Data[lo+i] >= s })
		b[j+1] = int64(idx)
		p.Compute(2 * ilog2(n+1))
	}
	// Spread equal-splitter runs: consecutive splitters js..je sharing
	// value v pin boundaries b[js+1..je+1] to the same spot, funnelling
	// every key == v to one destination; slice that run across the tied
	// destinations instead.
	for js := 0; js < len(splitters); {
		je := js
		for je+1 < len(splitters) && splitters[je+1] == splitters[js] {
			je++
		}
		if m := je - js + 1; m > 1 {
			v := splitters[js]
			lb := int(b[js+1])
			ub := lb + sort.Search(n-lb, func(i int) bool { return arr.Data[lo+lb+i] > v })
			if run := ub - lb; run > 0 {
				for i := 0; i < m; i++ {
					b[js+1+i] = int64(lb + i*run/m)
				}
				p.Compute(m + 2*ilog2(n+1))
			}
		}
		js = je + 1
	}
	return b
}

// gatherSorted concatenates the per-processor final runs.
func gatherSorted(final []*machine.Array[uint32], counts []int) []uint32 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]uint32, 0, total)
	for i, arr := range final {
		out = append(out, arr.Data[:counts[i]]...)
	}
	return out
}
