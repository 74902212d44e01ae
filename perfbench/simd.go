package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/keys"
	"repro/internal/machine"
)

const (
	// simdStarts is the fewest server starts an untraced simd-coldwarm
	// run makes to measure set-up: one per session, and more that are
	// stopped at once.
	simdStarts = 9
	// simdSessions is how many fresh servers an untraced simd-coldwarm
	// run measures, one after another. Each gets a round of cold configs
	// under key seeds of its own, then replays them warm. The slowest
	// configs form a small cluster whose latencies decide p95; one round
	// holds only 16 of them, and its p95 moved by a quarter from run to
	// run. A server's peak memory depends on which configs happen to run
	// side by side, so it is taken per server and the median reported.
	simdSessions = 3
	// simdConns is the closed loop's client count: each sends its next
	// request only after the previous reply.
	simdConns = 2
	// minWarm is the fewest warm requests of a session, so that p99 has
	// ten samples beyond it. It is also the window over which
	// warm_p99_ms is taken.
	minWarm = 1000
	// requestTimeout fails a request that gets no reply in time.
	requestTimeout = 60 * time.Second
)

// simdRequest is the wire form of one /v1/run request.
type simdRequest struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	N         int    `json:"n"`
	Procs     int    `json:"procs"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace,omitempty"`
}

// simdDoc is the part of a /v1/run result document the benchmark checks.
type simdDoc struct {
	TimeNs     float64 `json:"time_ns"`
	Verified   bool    `json:"verified"`
	Breakdowns []struct {
		Busy float64 `json:"busy_ns"`
		LMem float64 `json:"lmem_ns"`
		RMem float64 `json:"rmem_ns"`
		Sync float64 `json:"sync_ns"`
	} `json:"breakdowns"`
}

func (r simdRequest) experiment() repro.Experiment {
	return repro.Experiment{
		Algorithm: repro.Algorithm(r.Algorithm), Model: repro.Model(r.Model), N: r.N,
		Procs: r.Procs, Radix: 8, Dist: keys.Gauss, Seed: r.Seed, Trace: r.Trace,
	}
}

// coldRounds are the simd-coldwarm requests, one round per session:
// every parallel program at 16 and 64 procs under several key seeds, a
// quarter of them with the virtual-time trace on. 13 programs × 2 proc
// counts × 8 seeds give 208 requests a round, enough that p95 has ten
// samples beyond it. The untraced run has simdSessions rounds, the traced
// run one. All requests are distinct, so each one must be simulated. A
// round's order is shuffled so that heavy and light configs interleave,
// but the shuffle is the same in every round and for every workload seed:
// which configs run side by side on the server's two job slots then does
// not change with the seed, and neither does the peak memory that pairing
// sets.
func coldRounds(o options) [][]simdRequest {
	n, procs, seeds, rounds := 1<<16, []int{16, 64}, 8, simdSessions
	if o.tiny {
		n, procs, seeds = 1<<12, []int{4, 8}, 1
	}
	if o.tiny || o.trace {
		rounds = 1
	}
	var round []simdRequest
	for _, alg := range []repro.Algorithm{repro.Radix, repro.Sample, repro.Psrs} {
		for _, m := range repro.Models(alg) {
			for _, p := range procs {
				for s := 0; s < seeds; s++ {
					round = append(round, simdRequest{Algorithm: string(alg), Model: string(m), N: n, Procs: p})
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	out := make([][]simdRequest, rounds)
	for r := range out {
		for i, c := range round {
			c.Seed = cellSeed(o.seed, r*len(round)+i)
			c.Trace = i%4 == 3
			out[r] = append(out[r], c)
		}
	}
	return out
}

func runSimdWorkload(o options) (*result, error) {
	return runSimd(o, coldRounds(o))
}

// session is what one server measured.
type session struct {
	setup, coldWall, warmWall, coldCPU time.Duration
	cold, warm                         []float64
	peakMB                             float64
	stats0, stats1                     simdStats
}

// runSimd measures freshly built simd servers, one session per round of
// configs, and checks every reply.
func runSimd(o options, rounds [][]simdRequest) (*result, error) {
	if o.simd == "" {
		return nil, errors.New("simd-coldwarm needs -simd, the path of a built cmd/simd")
	}
	res := newResult()
	var setups []float64
	for i := len(rounds); i < simdStarts && !o.trace; i++ {
		srv, setup, err := startSimd(o.simd, o.tmp)
		if err != nil {
			return nil, err
		}
		srv.stop()
		setups = append(setups, setup.Seconds())
	}
	var (
		configs  []simdRequest
		bodies   [][]byte
		docs     []simdDoc
		sessions []session
	)
	budget := o.seconds / float64(len(rounds))
	for _, round := range rounds {
		at := len(configs)
		configs = append(configs, round...)
		bodies = append(bodies, make([][]byte, len(round))...)
		docs = append(docs, make([]simdDoc, len(round))...)
		s, err := runSession(o, round, budget, bodies[at:], docs[at:], res)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
	}
	var (
		cold, warm, peaks           []float64
		coldWall, warmWall, coldCPU time.Duration
		runs, hits, misses          int64
	)
	for _, s := range sessions {
		setups = append(setups, s.setup.Seconds())
		cold = append(cold, s.cold...)
		warm = append(warm, s.warm...)
		peaks = append(peaks, s.peakMB)
		coldWall += s.coldWall
		warmWall += s.warmWall
		coldCPU += s.coldCPU
		runs += int64(s.stats1.Harness.Runs - s.stats0.Harness.Runs)
		hits += s.stats1.Cache.hits() - s.stats0.Cache.hits()
		misses += s.stats1.Cache.misses() - s.stats0.Cache.misses()
	}

	// The servers' simulated results must equal an in-process repro.Run
	// of the same configs, whose outputs the benchmark checks itself.
	exps := make([]repro.Experiment, len(configs))
	for i, c := range configs {
		exps[i] = c.experiment()
	}
	var local pass
	var err error
	if o.trace {
		if local, err = tracedRun(exps, res); err != nil {
			return nil, err
		}
		res.set("simd.cold_overhead_ms", median(cold)-res.Metrics["repro.run_ms_p50"].Value, "ms")
		res.set("harness.runs", float64(runs), "count")
		res.set("resultcache.hits", float64(hits), "count")
		res.set("resultcache.misses", float64(misses), "count")
		res.set("simd.useful_work_ratio", float64(runs)/float64(len(configs)), "fraction")
	} else {
		// The check's own runs are not requests to the server, so they
		// are not counted in res.
		check := newResult()
		local = reproPass(exps, fingerprints(exps), check)
		res.Correct = res.Correct && check.Correct
	}
	for i, run := range local.runs {
		if bodies[i] != nil && (run == nil || !sameSimulation(docs[i], run)) {
			fmt.Fprintf(os.Stderr, "perfbench: simd and repro.Run disagree on %s\n", exps[i].Label())
			res.Correct = false
		}
	}
	res.setDigest(o.workload, local.sum)
	if o.trace {
		return res, nil
	}

	res.set("setup_s", median(setups), "s")
	res.set("wall_s", coldWall.Seconds(), "s")
	res.set("maccess_per_s", float64(local.sim.accesses)/coldWall.Seconds()/1e6, "M/s")
	res.set("cpu_s", coldCPU.Seconds(), "s")
	res.set("peak_rss_mb", median(peaks), "MB")
	res.set("cold_rps", float64(len(cold))/coldWall.Seconds(), "1/s")
	res.set("cold_p50_ms", median(cold), "ms")
	res.set("cold_p95_ms", percentile(cold, 0.95), "ms")
	res.set("warm_rps", float64(len(warm))/warmWall.Seconds(), "1/s")
	res.set("warm_p50_ms", median(warm), "ms")
	res.set("warm_p99_ms", windowedPercentile(warm, minWarm, 0.99), "ms")
	fmt.Fprintf(os.Stderr, "perfbench: simd-coldwarm: %d sessions, %d cold and %d warm requests\n",
		len(sessions), len(cold), len(warm))
	return res, nil
}

// runSession starts a fresh server with a fresh result cache and drives
// it as a closed loop: a cold phase that sends each config once, and a
// warm phase that replays them, all cache hits, until budget seconds
// from the start of the cold phase, but for at least a quarter of budget
// and minWarm requests. The traced run sends minWarm warm requests. The
// cold replies go to bodies and docs. The server is killed on every exit
// path.
func runSession(o options, configs []simdRequest, budget float64, bodies [][]byte, docs []simdDoc, res *result) (session, error) {
	var s session
	srv, setup, err := startSimd(o.simd, o.tmp)
	if err != nil {
		return s, err
	}
	defer srv.stop()
	s.setup = setup
	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: simdConns, MaxConnsPerHost: simdConns},
	}
	defer client.CloseIdleConnections()

	if s.stats0, err = srv.statsz(client); err != nil {
		return s, err
	}
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return s, err
	}
	coldStart := time.Now()
	s.cold = closedLoop(client, srv.base, func(i int) ([]byte, bool) {
		if i >= len(configs) {
			return nil, false
		}
		b, _ := json.Marshal(configs[i])
		return b, true
	}, func(i int, resp *http.Response, body []byte) error {
		if resp.Header.Get("X-Simd-Cache") != "miss" {
			return fmt.Errorf("cold request %d was not simulated", i)
		}
		if err := json.Unmarshal(body, &docs[i]); err != nil {
			return err
		}
		if !docs[i].Verified {
			return fmt.Errorf("cold request %d: output not verified", i)
		}
		bodies[i] = body
		return nil
	}, res)
	s.coldWall = time.Since(coldStart)
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return s, err
	}
	s.coldCPU = cpu1 - cpu0

	warmStart := time.Now()
	seconds := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	deadline := coldStart.Add(seconds(budget))
	if least := warmStart.Add(seconds(budget / 4)); deadline.Before(least) {
		deadline = least
	}
	if o.trace {
		deadline = warmStart
	}
	s.warm = closedLoop(client, srv.base, func(i int) ([]byte, bool) {
		if i >= minWarm && time.Now().After(deadline) {
			return nil, false
		}
		b, _ := json.Marshal(configs[i%len(configs)])
		return b, true
	}, func(i int, resp *http.Response, body []byte) error {
		if resp.Header.Get("X-Simd-Cache") != "hit" {
			return fmt.Errorf("warm request %d missed the cache", i)
		}
		if !bytes.Equal(body, bodies[i%len(configs)]) {
			return fmt.Errorf("warm request %d: %w: body differs from the cold reply", i, errWrongOutput)
		}
		return nil
	}, res)
	s.warmWall = time.Since(warmStart)
	if s.stats1, err = srv.statsz(client); err != nil {
		return s, err
	}
	s.peakMB, err = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	return s, err
}

// windowedPercentile is the median over consecutive windows of w
// samples of each window's p-quantile; a trailing part window is left
// out. A burst of load from elsewhere on the host then moves one window's
// value, not the result, as it would a percentile over the whole phase.
func windowedPercentile(xs []float64, w int, p float64) float64 {
	var ps []float64
	for i := 0; i+w <= len(xs); i += w {
		ps = append(ps, percentile(xs[i:i+w], p))
	}
	if ps == nil {
		return percentile(xs, p)
	}
	return median(ps)
}

// sameSimulation reports whether a simd result document holds the
// simulated time and per-processor breakdowns of run.
func sameSimulation(doc simdDoc, run *machine.Result) bool {
	if doc.TimeNs != run.TimeNs || len(doc.Breakdowns) != len(run.PerProc) {
		return false
	}
	for i, b := range doc.Breakdowns {
		w := run.PerProc[i].Breakdown
		if b.Busy != w.Busy || b.LMem != w.LMem || b.RMem != w.RMem || b.Sync != w.Sync {
			return false
		}
	}
	return true
}

// errWrongOutput marks a reply that arrived but is wrong, as opposed to
// one that failed.
var errWrongOutput = errors.New("wrong output")

// closedLoop posts /v1/run requests from simdConns clients until next
// reports the phase is over, and returns each request's latency in
// milliseconds. Each reply must be 200 and pass check; any other reply,
// transport error or timeout counts as a failed request in res and never
// stops the phase.
func closedLoop(client *http.Client, base string, next func(i int) ([]byte, bool),
	check func(i int, resp *http.Response, body []byte) error, res *result) []float64 {
	var (
		mu      sync.Mutex
		latMs   []float64
		counter atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < simdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(counter.Add(1) - 1)
				body, ok := next(i)
				if !ok {
					return
				}
				start := time.Now()
				err := post(client, base+"/v1/run", body, func(resp *http.Response, b []byte) error {
					return check(i, resp, b)
				})
				lat := ms(time.Since(start))
				mu.Lock()
				latMs = append(latMs, lat)
				res.count(err)
				if errors.Is(err, errWrongOutput) {
					res.Correct = false
				}
				mu.Unlock()
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
				}
			}
		}()
	}
	wg.Wait()
	return latMs
}

func post(client *http.Client, url string, body []byte, check func(*http.Response, []byte) error) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return check(resp, b)
}

// simdServer is one running cmd/simd process.
type simdServer struct {
	cmd      *exec.Cmd
	base     string
	cacheDir string
	exited   chan struct{}
	stopOnce sync.Once
}

// startSimd starts simd on a free local port with a fresh cache
// directory and returns once /healthz answers 200, with the time from
// exec to that answer.
func startSimd(bin, tmp string) (*simdServer, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "simd-cache-")
	if err != nil {
		return nil, 0, err
	}
	addr := &addrWatcher{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", dir)
	cmd.Stderr = addr
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &simdServer{cmd: cmd, cacheDir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	fail := func(err error) (*simdServer, time.Duration, error) {
		s.stop()
		return nil, 0, fmt.Errorf("starting simd: %w", err)
	}
	timeout := time.After(30 * time.Second)
	select {
	case a := <-addr.found:
		s.base = "http://" + a
	case <-s.exited:
		return fail(errors.New("server exited before listening"))
	case <-timeout:
		return fail(errors.New("server did not listen within 30s"))
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return fail(errors.New("server exited before /healthz answered"))
		case <-timeout:
			return fail(errors.New("/healthz did not answer 200 within 30s"))
		case <-time.After(time.Millisecond):
		}
	}
}

// stop kills the server, waits for it to exit and removes its cache.
func (s *simdServer) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Kill()
		<-s.exited
		os.RemoveAll(s.cacheDir)
	})
}

// simdStats is the part of /statsz the benchmark reads.
type simdStats struct {
	Harness struct {
		Runs int `json:"runs"`
	} `json:"harness"`
	Cache cacheStats `json:"cache"`
}

type cacheStats struct {
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	Shared   int64 `json:"shared"`
	Computed int64 `json:"computed"`
	Errors   int64 `json:"errors"`
}

func (c cacheStats) hits() int64   { return c.MemHits + c.DiskHits + c.Shared }
func (c cacheStats) misses() int64 { return c.Computed + c.Errors }

func (s *simdServer) statsz(client *http.Client) (simdStats, error) {
	var st simdStats
	resp, err := client.Get(s.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// addrWatcher takes simd's standard error and reports the address from
// its "listening on http://ADDR" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	done  bool
	found chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const marker = "listening on http://"
	if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
		rest := w.buf[i+len(marker):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			w.found <- string(rest[:j])
			w.done, w.buf = true, nil
		}
	}
	return len(p), nil
}

// procCPU is a process's user plus system CPU time, read from
// /proc/PID/stat in clock ticks of 10ms.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}
