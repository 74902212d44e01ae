package sorts

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/machine"
)

// scanChunks is the reference for sendChunks: it visits every bucket and
// clips src's run in it to dst's partition.
func scanChunks(pl *chunkPlan, src, dst int) []chunk {
	plo := int64(dst) * int64(pl.n) / int64(pl.procs)
	phi := int64(dst+1) * int64(pl.n) / int64(pl.procs)
	var out []chunk
	for d := 0; d < pl.buckets; d++ {
		cs := pl.gStart[d] + pl.rank[src][d]
		ce := cs + int64(pl.hists[src][d])
		s, e := max(cs, plo), min(ce, phi)
		if e <= s {
			continue
		}
		out = append(out, chunk{srcOff: int(pl.bufPos[src][d] + (s - cs)),
			dstOff: int(s - plo), count: int(e - s), bucket: d})
	}
	return out
}

func TestChunkPlanSendChunksMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases, fewerKeysThanProcs := 0, 0
	for _, P := range []int{1, 2, 3, 5, 8, 16} {
		for _, B := range []int{1, 2, 7, 16, 64} {
			for trial := 0; trial < 20; trial++ {
				// Sparse trials put only a few keys in the whole plan, so
				// n < P and most buckets and rows are empty.
				sparse := trial%4 == 0
				hists := make([][]int32, P)
				n := 0
				for i := range hists {
					hists[i] = make([]int32, B)
					if rng.Intn(4) == 0 {
						continue // an all-zero row
					}
					for d := range hists[i] {
						if rng.Intn(3) == 0 || (sparse && rng.Intn(8*B) != 0) {
							continue // an empty bucket
						}
						c := rng.Intn(6)
						if rng.Intn(10) == 0 {
							c += rng.Intn(200) // a bucket spanning partitions
						}
						hists[i][d] = int32(c)
						n += c
					}
				}
				if n < P {
					fewerKeysThanProcs++
				}
				pl := newChunkPlan(n, hists)
				for src := 0; src < P; src++ {
					for dst := 0; dst < P; dst++ {
						got, want := pl.sendChunks(src, dst), scanChunks(pl, src, dst)
						if !slices.Equal(got, want) {
							t.Fatalf("P=%d B=%d n=%d hists=%v: sendChunks(%d, %d) = %v, scan = %v",
								P, B, n, hists, src, dst, got, want)
						}
						if c := pl.numChunks(src, dst); c != len(want) {
							t.Fatalf("P=%d B=%d n=%d hists=%v: numChunks(%d, %d) = %d, scan has %d",
								P, B, n, hists, src, dst, c, len(want))
						}
					}
				}
				cases++
			}
		}
	}
	if fewerKeysThanProcs == 0 {
		t.Fatal("no plan had fewer keys than processors")
	}
	t.Logf("%d plans checked, %d with fewer keys than processors", cases, fewerKeysThanProcs)
}

func TestPlanSetRejectsDisagreeingRow(t *testing.T) {
	hists := [][]int32{{3, 0, 5}, {1, 4, 0}, {0, 2, 2}}
	plans := newPlanSet(2)
	pl := plans.get(1, 17, hists)
	if again := plans.get(1, 17, [][]int32{{3, 0, 5}, {1, 4, 0}, {0, 2, 2}}); again != pl {
		t.Fatalf("an agreeing caller got a different plan")
	}
	if other := plans.get(0, 17, [][]int32{{3, 0, 5}, {1, 4, 0}, {0, 2, 2}}); other == pl {
		t.Fatalf("two passes share one plan")
	}
	// The plan owns its histograms: the first caller's buffers may be
	// reused once the plan exists.
	hists[0][0] = 9
	if pl.hists[0][0] != 3 {
		t.Fatalf("plan aliases its builder's histogram rows")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a disagreeing histogram row did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "row 2") {
			t.Fatalf("panic %q does not name row 2", msg)
		}
	}()
	plans.get(1, 17, [][]int32{{3, 0, 5}, {1, 4, 0}, {0, 3, 1}})
}

func TestSamplePoolRejectsDisagreeingSamples(t *testing.T) {
	m := scaled(t, 2)
	var pool samplePool
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a processor with different samples did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "differ from the sorted pool") {
			t.Fatalf("unexpected panic %q", msg)
		}
	}()
	m.Run(func(p *machine.Proc) {
		// Processor 1 saw a different second block than processor 0.
		pool.merge(p, 2, []uint32{5, 9}, []uint32{1, uint32(3 + p.ID)})
	})
}

// TestHostAllocRadixModels bounds the host memory the radix MPI and
// SHMEM programs allocate on a many-processor machine. Rebuilding the
// chunk plan on every processor costs O(P²·B) per pass, over 1 GB here;
// one shared plan per pass stays far below the bound.
func TestHostAllocRadixModels(t *testing.T) {
	const procs, n, limitMB = 256, 1 << 14, 256
	in := genKeys(t, keys.Gauss, n, procs, 8)
	for _, prog := range []struct {
		name string
		run  func(*machine.Machine, []uint32, Config) (*Result, error)
	}{{"RadixMPI", RadixMPI}, {"RadixSHMEM", RadixSHMEM}} {
		m := scaled(t, procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := prog.run(m, in, Config{Radix: 8})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", prog.name, err)
		}
		checkSorted(t, in, res)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s at P=%d, n=%d: %.1f MB allocated", prog.name, procs, n, mb)
		if mb >= limitMB {
			t.Errorf("%s at P=%d, n=%d allocated %.1f MB, want < %d MB",
				prog.name, procs, n, mb, limitMB)
		}
	}
}
