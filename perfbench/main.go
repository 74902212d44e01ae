// Command perfbench is the repository's benchmark. One run measures one
// named workload, checks every output it produces, and prints as its last
// line a JSON object with every metric by name and unit: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a separate traced
// run. See README.md in this directory for the workloads, the metrics and
// how to read them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload bigcell --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	// seconds is how long the run measures.
	seconds float64
	trace   bool
	// simd is the path of a built cmd/simd binary.
	simd string
	// tmp is a scratch directory for the simd result cache.
	tmp string
	// tiny shrinks every workload to a size the benchmark's own tests
	// can run in seconds.
	tiny bool
}

func (o options) size() string {
	if o.tiny {
		return "tiny"
	}
	return "full"
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func(options) (*result, error){
	"bigcell":       runCellWorkload,
	"manyproc":      runCellWorkload,
	"simd-coldwarm": runSimdWorkload,
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digests are the simulated-output digests, printed on a line of
	// their own before the result.
	digests map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

func (r *result) setDigest(name, sum string) {
	if r.digests == nil {
		r.digests = map[string]string{}
	}
	r.digests[name] = sum
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// count records one attempted operation and whether it failed.
func (r *result) count(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: bigcell, manyproc or simd-coldwarm")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	fs.StringVar(&o.simd, "simd", "", "path of a built cmd/simd binary (simd-coldwarm)")
	fs.StringVar(&o.tmp, "tmp", os.TempDir(), "scratch directory")
	size := fs.String("size", "full", "workload size: full, or tiny for the benchmark's tests")
	ready := fs.Bool("ready", false, "set-up probe: report readiness and exit")
	passes := fs.Bool("passes", false, "child process: make a cold and a warm pass and report them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceMode == 1
	o.tiny = *size == "tiny"
	work, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	case *size != "full" && *size != "tiny":
		fmt.Fprintf(stderr, "perfbench: -size must be full or tiny, got %q\n", *size)
		return 2
	case o.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if *ready {
		// A cell workload is ready for its first timed operation once
		// its experiments are built.
		if _, err := cellsFor(o); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	if *passes {
		if err := runPasses(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{"host": hostInfo(o)})
	res, err := work(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc.Encode(map[string]any{"digest": res.digests})
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo is recorded with every result so that numbers from different
// hosts or settings are never compared by mistake.
func hostInfo(o options) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"size":       o.size(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
