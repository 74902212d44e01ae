package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/keys"
)

// simdBin is a cmd/simd built for the tests.
var simdBin string

// TestMain builds cmd/simd once. A test binary started with
// PERFBENCH_MAIN=1 runs the benchmark itself instead of the tests, so that
// the tests can run it as a separate process, the way run.sh does.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		main()
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	simdBin = filepath.Join(dir, "simd")
	if out, err := exec.Command("go", "build", "-o", simdBin, "repro/cmd/simd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building cmd/simd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchOutput is one benchmark run's output lines.
type benchOutput struct {
	digests map[string]string
	res     result
}

// runBench runs the benchmark at tiny size in a separate process.
func runBench(t *testing.T, workload string, seed uint64, trace int) benchOutput {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", "0.5", "-trace", strconv.Itoa(trace), "-size", "tiny",
		"-simd", simdBin, "-tmp", t.TempDir())
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a digest line and a result line, got %q", workload, out)
	}
	var bo benchOutput
	var d struct{ Digest map[string]string }
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		t.Fatalf("digest line: %v", err)
	}
	bo.digests = d.Digest
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bo.res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return bo
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

type benchMetric struct{ Name, Unit string }

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// Every workload prints exactly the metrics BENCHMARK.json names, each
// with its unit: the end-to-end ones untraced, the per-layer ones traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	// bigcell is not in BENCHMARK.json but is kept runnable by hand.
	names := []string{"bigcell"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for trace, want := range [][]benchMetric{spec.EndToEnd, spec.PerLayer} {
			out := runBench(t, name, 1, trace)
			r := out.res
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if trace == 1 {
				checkTraced(t, name, out)
			}
		}
	}
}

// checkTraced checks the traced run's digests agree and its CPU shares
// sum to 1.
func checkTraced(t *testing.T, workload string, out benchOutput) {
	t.Helper()
	d := out.digests
	if d["layers"] == "" || d["layers"] != d["untraced"] || d["untraced"] != d["traced"] {
		t.Errorf("%s: traced run digests disagree: %v", workload, d)
	}
	if out.res.Metrics["profile.samples"].Value == 0 {
		return
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += out.res.Metrics["cpu."+m].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: cpu.* shares sum to %v", workload, sum)
	}
}

// The same seed gives the same simulated results in two invocations; a
// different seed gives different inputs and so different results.
func TestDigestRepeatsAndSeedChangesInputs(t *testing.T) {
	for _, w := range []string{"manyproc", "simd-coldwarm"} {
		a := runBench(t, w, 7, 0).digests[w]
		b := runBench(t, w, 7, 0).digests[w]
		c := runBench(t, w, 8, 0).digests[w]
		if a == "" || a != b {
			t.Errorf("%s: digests of two invocations with one seed differ: %s %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w)
		}
	}
	o := options{workload: "manyproc", tiny: true}
	o.seed = 7
	c7, _ := cellsFor(o)
	o.seed = 8
	c8, _ := cellsFor(o)
	k7, _ := keys.Generate(c7[0].Dist, genConfig(c7[0]))
	k8, _ := keys.Generate(c8[0].Dist, genConfig(c8[0]))
	if fingerprintOf(k7) == fingerprintOf(k8) {
		t.Error("seeds 7 and 8 generated the same keys")
	}
}

// badCell passes simd's validation but fails at run time: CC-SAS needs a
// power-of-two processor count.
var badCell = repro.Experiment{Algorithm: repro.Radix, Model: repro.CCSAS, N: 4096, Procs: 3, Radix: 8, Dist: keys.Gauss}

// A cell that fails is counted, and the run goes on.
func TestFailedCellIsCounted(t *testing.T) {
	good := badCell
	good.Procs = 4
	exps := []repro.Experiment{badCell, good}
	res := newResult()
	p := reproPass(exps, fingerprints(exps), res)
	if res.Attempted != 2 || res.Failed != 1 || !res.Correct || p.runs[1] == nil {
		t.Errorf("repro.Run pass: attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	}
	res = newResult()
	if _, err := tracedRun(exps, res); err != nil {
		t.Fatal(err)
	}
	// Three passes of two cells, one failing each time.
	if res.Attempted != 6 || res.Failed != 3 || !res.Correct {
		t.Errorf("traced run: attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["error_rate"].Value; got != 0.5 {
		t.Errorf("error_rate = %v, want 0.5", got)
	}
}

// A request that fails is counted, the run goes on, and the server is
// gone when the run returns.
func TestFailedRequestIsCountedAndServerStopped(t *testing.T) {
	bad := simdRequest{Algorithm: "radix", Model: "ccsas", N: 4096, Procs: 3, Seed: 1}
	good := bad
	good.Procs = 4
	o := options{workload: "simd-coldwarm", seed: 1, seconds: 0.1, simd: simdBin, tmp: t.TempDir()}
	res, err := runSimd(o, [][]simdRequest{{bad, good}})
	if err != nil {
		t.Fatal(err)
	}
	// About half of the cold and warm requests go to the bad config.
	if !res.Correct || res.Attempted < 2+minWarm || abs(2*res.Failed-res.Attempted) > 2 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if kids := children(t); len(kids) != 0 {
		t.Errorf("processes still running after the run: %v", kids)
	}
}

func abs(x int) int { return max(x, -x) }

// children lists the test process's child processes.
func children(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var kids []string
	self := strconv.Itoa(os.Getpid())
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == self {
			kids = append(kids, p)
		}
	}
	return kids
}

// The CPU profile attribution sees a known hot module and its shares sum
// to 1.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		keys.MustGenerate(keys.Gauss, keys.GenConfig{N: 1 << 16, Procs: 4, RadixBits: 8})
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profile caught no samples")
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// Under the race detector most samples land in its instrumentation,
	// so the test asks only that keys lead the simulator's modules.
	for _, m := range cpuModules {
		if m != "keys" && m != "runtime" && m != "other" && shares[m] >= shares["keys"] {
			t.Errorf("module %s has share %v, keys %v, of %d samples", m, shares[m], shares["keys"], samples)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/cache.(*Cache).LaneHit", "repro/internal/machine.(*Proc).CountStream"}, "cache"},
		{[]string{"runtime.mallocgc", "repro/internal/sorts.RadixMPI"}, "runtime"},
		{[]string{"runtime.memmove", "repro/internal/shmem.(*Sym).Put"}, "shmem"},
		{[]string{"sort.Float64s", "main.median"}, "other"},
		{[]string{"repro/internal/check.(*Checker).Err"}, "other"},
		{[]string{"repro/internal/machine.NewArrayBlocked[...]"}, "machine"},
		{nil, "other"},
	} {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
