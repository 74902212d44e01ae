package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/machine"
)

// minChildren is the fewest fresh processes a cell workload runs, so
// that it always has two cold and two warm passes.
const minChildren = 2

// setupProbes is how many times a run measures its set-up; it reports
// the median.
const setupProbes = 15

// pass is one pass over a workload's experiments through repro.Run.
type pass struct {
	wall, cpu time.Duration
	// latMs is each experiment's latency in milliseconds.
	latMs  []float64
	runs   []*machine.Result
	digest digest
	// sum is the digest of the whole pass.
	sum string
	sim simTotals
}

// reproPass runs every experiment once through repro.Run, counting each
// into res.
func reproPass(exps []repro.Experiment, wants []fingerprint, res *result) pass {
	p := pass{digest: newDigest()}
	for i, e := range exps {
		p.add(e, runTimed(e, wants[i]), res)
	}
	p.sum = p.digest.sum()
	return p
}

// tracePasses runs every experiment through repro.Run twice, with the
// virtual-time trace off and on. The two runs of one experiment are
// back to back, in alternating order, so that drift in the host's speed
// falls on both passes alike.
func tracePasses(exps []repro.Experiment, wants []fingerprint, res *result) (untraced, traced pass) {
	untraced, traced = pass{digest: newDigest()}, pass{digest: newDigest()}
	for i, e := range exps {
		for j := 0; j < 2; j++ {
			p := &untraced
			e.Trace = (i+j)%2 == 1
			if e.Trace {
				p = &traced
			}
			p.add(e, runTimed(e, wants[i]), res)
		}
	}
	untraced.sum, traced.sum = untraced.digest.sum(), traced.digest.sum()
	return untraced, traced
}

func (p *pass) add(e repro.Experiment, c cellRun, res *result) {
	res.count(c.err)
	if c.wrong {
		res.Correct = false
	}
	if c.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", c.err)
	}
	p.wall += c.wall
	p.cpu += c.cpu
	p.latMs = append(p.latMs, ms(c.wall))
	p.runs = append(p.runs, c.run)
	p.digest.add(e.Label(), c.run)
	if c.run != nil {
		p.sim.add(c.run)
	}
}

func fingerprints(exps []repro.Experiment) []fingerprint {
	wants := make([]fingerprint, len(exps))
	for i, e := range exps {
		// An experiment whose keys cannot be generated fails in
		// repro.Run with the same error; it is counted there.
		wants[i], _ = inputFingerprint(e)
	}
	return wants
}

// runCellWorkload measures a cell workload. It runs fresh child
// processes until the run's time is up, and at least minChildren. Each
// child makes two passes over the cells: a cold pass, which pays what a
// user of cmd/sortbench or cmd/paperfigs pays in a fresh process, and a
// warm pass, which reuses the slab arena pool and the grown heap as a
// long-lived process does. Taking each pass's numbers from several
// processes keeps the cold numbers from resting on one sample, and keeps
// peak memory per process (it climbs with every pass in one process).
func runCellWorkload(o options) (*result, error) {
	cells, err := cellsFor(o)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if o.trace {
		_, err := tracedRun(cells, res)
		return res, err
	}
	setup, err := probeCellSetup(o)
	if err != nil {
		return nil, err
	}
	var kids []childReport
	start := time.Now()
	for {
		began := time.Now()
		k, err := runChild(o)
		if err != nil {
			return nil, err
		}
		res.Attempted += k.Attempted
		res.Failed += k.Failed
		res.Correct = res.Correct && k.Correct
		kids = append(kids, k)
		// Start another process only if it would end less than half a
		// process past the deadline.
		left := o.seconds - time.Since(start).Seconds()
		if len(kids) >= minChildren && left < time.Since(began).Seconds()/2 {
			break
		}
	}
	// Latency percentiles are taken per pass and their median over the
	// processes reported: a pass holds only four cells of very different
	// sizes, and a percentile over the pooled latencies would jump
	// between cells.
	var walls, cpus, rss, coldWalls, warmWalls, coldP50, coldP95, warmP50, warmP99 []float64
	for _, k := range kids {
		for i, p := range k.Passes {
			if p.Digest != kids[0].Passes[0].Digest {
				fmt.Fprintln(os.Stderr, "perfbench: two passes simulated different results")
				res.Correct = false
			}
			walls = append(walls, p.WallS)
			cpus = append(cpus, p.CPUS)
			if i == 0 {
				coldWalls = append(coldWalls, p.WallS)
				coldP50 = append(coldP50, median(p.LatMs))
				coldP95 = append(coldP95, percentile(p.LatMs, 0.95))
			} else {
				warmWalls = append(warmWalls, p.WallS)
				warmP50 = append(warmP50, median(p.LatMs))
				warmP99 = append(warmP99, percentile(p.LatMs, 0.99))
			}
		}
		rss = append(rss, k.peakMB)
	}
	first := kids[0].Passes[0]
	res.setDigest(o.workload, first.Digest)
	n := float64(len(cells))
	res.set("setup_s", setup, "s")
	res.set("wall_s", median(walls), "s")
	res.set("maccess_per_s", float64(first.Accesses)/median(walls)/1e6, "M/s")
	res.set("cpu_s", median(cpus), "s")
	res.set("peak_rss_mb", median(rss), "MB")
	res.set("cold_rps", n/median(coldWalls), "1/s")
	res.set("cold_p50_ms", median(coldP50), "ms")
	res.set("cold_p95_ms", median(coldP95), "ms")
	res.set("warm_rps", n/median(warmWalls), "1/s")
	res.set("warm_p50_ms", median(warmP50), "ms")
	res.set("warm_p99_ms", median(warmP99), "ms")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d processes, cold passes of %.3v s, warm passes of %.3v s\n",
		o.workload, len(kids), coldWalls, warmWalls)
	return res, nil
}

// childReport is what a child process reports of its passes.
type childReport struct {
	Passes    []passReport `json:"passes"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Correct   bool         `json:"correct"`
	// peakMB is the child's peak RSS, taken by the parent.
	peakMB float64
}

type passReport struct {
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	LatMs    []float64 `json:"lat_ms"`
	Digest   string    `json:"digest"`
	Accesses uint64    `json:"accesses"`
}

// runChild runs one fresh benchmark process that makes a cold and a
// warm pass (runPasses), and reads its report and its peak RSS.
func runChild(o options) (childReport, error) {
	var k childReport
	cmd, err := selfCommand(o, "-passes")
	if err != nil {
		return k, err
	}
	out, err := cmd.Output()
	if err != nil {
		return k, fmt.Errorf("child process: %w", err)
	}
	if err := json.Unmarshal(out, &k); err != nil {
		return k, fmt.Errorf("child process report: %w", err)
	}
	if len(k.Passes) != 2 {
		return k, fmt.Errorf("child process made %d passes, want 2", len(k.Passes))
	}
	// Maxrss is in kilobytes on Linux.
	k.peakMB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return k, nil
}

// runPasses is the child side of runChild: it makes a cold and a warm
// pass over the cells and writes the report to w.
func runPasses(o options, w io.Writer) error {
	cells, err := cellsFor(o)
	if err != nil {
		return err
	}
	wants := fingerprints(cells)
	res := newResult()
	var k childReport
	for i := 0; i < 2; i++ {
		p := reproPass(cells, wants, res)
		k.Passes = append(k.Passes, passReport{
			WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds(), LatMs: p.latMs,
			Digest: p.sum, Accesses: p.sim.accesses,
		})
	}
	k.Attempted, k.Failed, k.Correct = res.Attempted, res.Failed, res.Correct
	return json.NewEncoder(w).Encode(k)
}

// selfCommand is a command that runs this benchmark again, in a fresh
// process, for the same workload, seed and size, in the given mode.
func selfCommand(o options, mode string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, mode, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-size", o.size())
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// probeCellSetup measures a cell workload's set-up: the time from exec
// of a fresh benchmark process until it is ready to start its first
// cell. That covers process start and the package initialisation of
// every layer.
func probeCellSetup(o options) (float64, error) {
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd, err := selfCommand(o, "-ready")
		if err != nil {
			return 0, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return 0, fmt.Errorf("set-up probe failed: %q %v %v", line, rerr, werr)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// tracedRun is the separate traced run that gives the per-layer
// metrics. Pass A calls each layer's public function itself, in the
// order repro.Run does, under span timers, runtime/metrics deltas and a
// CPU profile. Passes B and C run the same experiments through repro.Run
// with the virtual-time trace off and on (tracePasses). All three must
// simulate the same results.
func tracedRun(exps []repro.Experiment, res *result) (untraced pass, err error) {
	wants := fingerprints(exps)
	clock := newLayerClock()
	rt := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rt)
	gcCPU0, gcCycles0 := rt[0].Value.Float64(), rt[1].Value.Uint64()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return pass{}, err
	}
	dA := newDigest()
	var sim simTotals
	for _, e := range exps {
		c := runLayers(e, clock)
		res.count(c.err)
		if c.wrong {
			res.Correct = false
		}
		if c.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", c.err)
		}
		dA.add(e.Label(), c.run)
		if c.run != nil {
			sim.add(c.run)
		}
	}
	pprof.StopCPUProfile()
	metrics.Read(rt)
	gcCPU, gcCycles := rt[0].Value.Float64()-gcCPU0, rt[1].Value.Uint64()-gcCycles0

	untraced, traced := tracePasses(exps, wants, res)
	if dA.sum() != untraced.sum || traced.sum != untraced.sum {
		fmt.Fprintln(os.Stderr, "perfbench: the traced run simulated different results")
		res.Correct = false
	}
	res.setDigest("layers", dA.sum())
	res.setDigest("untraced", untraced.sum)
	res.setDigest("traced", traced.sum)

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return pass{}, err
	}
	for _, m := range cpuModules {
		res.set("cpu."+m, shares[m], "fraction")
	}
	res.set("profile.samples", float64(samples), "count")
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	res.set("keys.host_ms", ms(clock.ns["keys"]), "ms")
	res.set("keys.alloc_mb", mb(clock.alloc["keys"]), "MB")
	res.set("machine.new_host_ms", ms(clock.ns["machine.new"]), "ms")
	res.set("machine.release_host_ms", ms(clock.ns["machine.release"]), "ms")
	res.set("sorts.host_ms", ms(clock.ns["sorts"]), "ms")
	res.set("sorts.alloc_mb", mb(clock.alloc["sorts"]), "MB")
	perAccess := 0.0
	if sim.accesses > 0 {
		perAccess = float64(clock.ns["sorts"].Nanoseconds()) / float64(sim.accesses)
	}
	res.set("sorts.host_ns_per_access", perAccess, "ns")
	res.set("verify.host_ms", ms(clock.ns["verify"]), "ms")
	res.set("runtime.gc_cpu_s", gcCPU, "s")
	res.set("runtime.gc_cycles", float64(gcCycles), "count")
	res.set("repro.run_ms_p50", median(untraced.latMs), "ms")
	res.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1, "fraction")
	sim.report(res)
	// The simd layers are measured only on simd-coldwarm, which
	// overwrites these.
	for _, name := range []string{"simd.cold_overhead_ms", "harness.runs", "resultcache.hits",
		"resultcache.misses", "simd.useful_work_ratio"} {
		res.set(name, 0, simdUnits[name])
	}
	res.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction")
	return untraced, nil
}

var simdUnits = map[string]string{
	"simd.cold_overhead_ms":  "ms",
	"harness.runs":           "count",
	"resultcache.hits":       "count",
	"resultcache.misses":     "count",
	"simd.useful_work_ratio": "fraction",
}

// layerClock is the traced run's span timer: host time and heap bytes
// allocated inside each layer's calls.
type layerClock struct {
	ns     map[string]time.Duration
	alloc  map[string]uint64
	sample []metrics.Sample
}

func newLayerClock() *layerClock {
	return &layerClock{
		ns:     map[string]time.Duration{},
		alloc:  map[string]uint64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (c *layerClock) allocated() uint64 {
	metrics.Read(c.sample)
	return c.sample[0].Value.Uint64()
}

func (c *layerClock) time(layer string, f func()) {
	a0 := c.allocated()
	start := time.Now()
	f()
	c.ns[layer] += time.Since(start)
	c.alloc[layer] += c.allocated() - a0
}

// peakRSSMB reads a process's peak resident set size (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(i, 0), len(s)-1)]
}
