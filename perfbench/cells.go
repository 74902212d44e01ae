package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/keys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/shmem"
	"repro/internal/sorts"
)

// cellsFor returns the cells of a cell workload. Every cell draws its key
// seed from the workload seed, so the same seed gives the same inputs.
//
//   - bigcell is the paper's big-figure cells at 64 procs, where the
//     access path (cache/TLB lanes, miss pricing, stream kernels) does
//     nearly all the work. The scattered-write radix/ccsas, the buffered
//     ccsas-new and the bulk shmem cell use the machine layer three
//     different ways.
//   - manyproc is 2^20 keys at 256 procs, where host time goes to
//     per-proc construction and P²-sized plans and segments rather than
//     to the access path.
func cellsFor(o options) ([]repro.Experiment, error) {
	type spec struct {
		alg   repro.Algorithm
		model repro.Model
		n     int
	}
	var specs []spec
	procs, tinyProcs := 0, 0
	switch o.workload {
	case "bigcell":
		procs, tinyProcs = 64, 16
		specs = []spec{
			{repro.Radix, repro.CCSAS, 1 << 22},
			{repro.Radix, repro.CCSASNew, 1 << 22},
			{repro.Sample, repro.CCSAS, 1 << 22},
			{repro.Radix, repro.SHMEM, 1 << 24},
		}
	case "manyproc":
		procs, tinyProcs = 256, 32
		specs = []spec{
			{repro.Radix, repro.MPI, 1 << 20},
			{repro.Radix, repro.SHMEM, 1 << 20},
			{repro.Psrs, repro.SHMEM, 1 << 20},
			{repro.Sample, repro.MPI, 1 << 20},
		}
	default:
		return nil, fmt.Errorf("%s is not a cell workload", o.workload)
	}
	cells := make([]repro.Experiment, len(specs))
	for i, s := range specs {
		e := repro.Experiment{
			Algorithm: s.alg, Model: s.model, N: s.n, Procs: procs,
			Radix: 8, Dist: keys.Gauss, Seed: cellSeed(o.seed, i),
		}
		if o.tiny {
			e.N, e.Procs = 1<<14, tinyProcs
		}
		cells[i] = e
	}
	return cells, nil
}

// cellSeed derives the key seed of cell i from the workload seed
// (splitmix64), so neighbouring workload seeds give unrelated inputs.
func cellSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fingerprint identifies a multiset of keys: its size, its sum and a sum
// of strongly mixed key hashes. Two multisets with equal fingerprints are
// equal except with negligible probability.
type fingerprint struct {
	n         int
	sum, hsum uint64
}

func mix(k uint32) uint64 { return cellSeed(uint64(k), 0) }

func fingerprintOf(ks []uint32) fingerprint {
	f := fingerprint{n: len(ks)}
	for _, k := range ks {
		f.sum += uint64(k)
		f.hsum += mix(k)
	}
	return f
}

// inputFingerprint regenerates an experiment's input keys the way
// repro.Run does and fingerprints them.
func inputFingerprint(e repro.Experiment) (fingerprint, error) {
	in, err := keys.Generate(e.Dist, genConfig(e))
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintOf(in), nil
}

func genConfig(e repro.Experiment) keys.GenConfig {
	return keys.GenConfig{N: e.N, Procs: e.Procs, RadixBits: e.Radix, Seed: e.Seed, AdvSamples: e.SampleSize}
}

// checkOutput is the benchmark's own output check: out must be ascending
// and a permutation of the input the fingerprint describes.
func checkOutput(want fingerprint, out []uint32) error {
	if len(out) != want.n {
		return fmt.Errorf("output has %d keys, want %d", len(out), want.n)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("output not ascending at index %d", i)
		}
	}
	if got := fingerprintOf(out); got != want {
		return fmt.Errorf("output is not a permutation of the input")
	}
	return nil
}

// simTotals sums a workload's simulated results over its cells. They are
// deterministic: a change to the host side only must leave them as they
// are.
type simTotals struct {
	timeNs                            float64
	bd                                machine.Breakdown
	accesses, misses, wbacks, tlbMiss uint64
	protocolTx, messages, remoteBytes int64
}

func (s *simTotals) add(r *machine.Result) {
	s.timeNs += r.TimeNs
	for _, ps := range r.PerProc {
		s.bd.Add(ps.Breakdown)
		s.accesses += ps.CacheAccesses
		s.misses += ps.CacheMisses
		s.wbacks += ps.Writebacks
		s.tlbMiss += ps.TLBMisses
		s.protocolTx += ps.Traffic.ProtocolTransactions
		s.messages += ps.Traffic.Messages
		s.remoteBytes += ps.Traffic.RemoteBytes
	}
}

func (s *simTotals) report(r *result) {
	total := s.bd.Total()
	if total == 0 {
		total = 1
	}
	r.set("sim.time_ms", s.timeNs/1e6, "ms")
	r.set("sim.busy_frac", s.bd.Busy/total, "fraction")
	r.set("sim.lmem_frac", s.bd.LMem/total, "fraction")
	r.set("sim.rmem_frac", s.bd.RMem/total, "fraction")
	r.set("sim.sync_frac", s.bd.Sync/total, "fraction")
	r.set("machine.sim_accesses", float64(s.accesses), "count")
	r.set("cache.misses", float64(s.misses), "count")
	r.set("cache.writebacks", float64(s.wbacks), "count")
	r.set("tlb.misses", float64(s.tlbMiss), "count")
	r.set("coherence.protocol_tx", float64(s.protocolTx), "count")
	r.set("machine.messages", float64(s.messages), "count")
	r.set("machine.remote_mb", float64(s.remoteBytes)/(1<<20), "MB")
}

// digest hashes every simulated result of one pass over a workload's
// cells: simulated time, each processor's breakdown, traffic and memory
// counts, and its per-phase breakdowns. Two passes that simulated the
// same thing have the same digest.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(label string, r *machine.Result) {
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	bd := func(x machine.Breakdown) { f(x.Busy); f(x.LMem); f(x.RMem); f(x.Sync) }
	d.h.Write([]byte(label))
	if r == nil {
		d.h.Write([]byte("failed"))
		return
	}
	f(r.TimeNs)
	u(uint64(len(r.PerProc)))
	for _, ps := range r.PerProc {
		bd(ps.Breakdown)
		u(uint64(ps.Traffic.RemoteBytes))
		u(uint64(ps.Traffic.Messages))
		u(uint64(ps.Traffic.ProtocolTransactions))
		u(ps.CacheAccesses)
		u(ps.CacheMisses)
		u(ps.Writebacks)
		u(ps.TLBMisses)
		names := make([]string, 0, len(ps.Phases))
		for name := range ps.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d.h.Write([]byte(name))
			bd(ps.Phases[name])
		}
	}
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// cellRun is one timed execution of one cell.
type cellRun struct {
	wall, cpu time.Duration
	run       *machine.Result
	err       error
	// wrong is set when the cell ran but its output failed the check.
	wrong bool
}

// runTimed executes one cell through repro.Run, the whole pipeline a user
// of the library calls, and checks its output outside the timed section.
// A panic or an error becomes the cell's error, never an abort.
func runTimed(e repro.Experiment, want fingerprint) (c cellRun) {
	defer func() {
		if v := recover(); v != nil {
			c.err = fmt.Errorf("%s: panic: %v", e.Label(), v)
		}
	}()
	cpu0 := cpuTime()
	start := time.Now()
	out, err := repro.Run(e)
	c.wall = time.Since(start)
	c.cpu = cpuTime() - cpu0
	if err != nil {
		c.err = err
		return c
	}
	if err := checkOutput(want, out.Result.Sorted); err != nil {
		c.err = fmt.Errorf("%s: %w", e.Label(), err)
		c.wrong = true
		return c
	}
	c.run = out.Result.Run
	return c
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLayers executes one cell the way repro.Run does, but calls each
// layer's public function itself so that clock can time it: key
// generation, machine build, the sorts program, the benchmark's own
// output check, and the machine's release.
func runLayers(e repro.Experiment, clock *layerClock) (c cellRun) {
	defer func() {
		if v := recover(); v != nil {
			c.err = fmt.Errorf("%s: panic: %v", e.Label(), v)
		}
	}()
	var in []uint32
	var err error
	clock.time("keys", func() { in, err = keys.Generate(e.Dist, genConfig(e)) })
	if err != nil {
		return cellRun{err: err}
	}
	var m *machine.Machine
	clock.time("machine.new", func() { m, err = machine.New(repro.MachineConfigFor(e)) })
	if err != nil {
		return cellRun{err: err}
	}
	if e.Trace {
		m.EnableTracing()
	}
	program, cfg, err := programFor(e)
	if err != nil {
		return cellRun{err: err}
	}
	var out *sorts.Result
	clock.time("sorts", func() { out, err = program(m, in, cfg) })
	if err != nil {
		return cellRun{err: err}
	}
	clock.time("verify", func() { err = checkOutput(fingerprintOf(in), out.Sorted) })
	if err != nil {
		return cellRun{err: fmt.Errorf("%s: %w", e.Label(), err), wrong: true}
	}
	clock.time("machine.release", m.Release)
	return cellRun{run: out.Run}
}

type program func(*machine.Machine, []uint32, sorts.Config) (*sorts.Result, error)

// programFor selects the sorts program and its configuration for an
// experiment exactly as repro.Run does; the digest check against
// repro.Run proves the two agree.
func programFor(e repro.Experiment) (program, sorts.Config, error) {
	cfg := sorts.Config{Radix: e.Radix, SampleSize: e.SampleSize}
	cfg.MPI = mpi.DefaultDirect()
	if e.Model == repro.MPISGI {
		cfg.MPI = mpi.DefaultStaged()
	}
	cfg.Shmem = shmem.DefaultConfig()
	if !e.FullSize {
		cfg.MPI = cfg.MPI.Scaled(float64(machine.ScaleFactor))
		cfg.Shmem = cfg.Shmem.Scaled(float64(machine.ScaleFactor))
	}
	if (e.Model == repro.CCSAS || e.Model == repro.CCSASNew) && e.Procs&(e.Procs-1) != 0 {
		return nil, cfg, fmt.Errorf("%s needs a power-of-two processor count, got %d", e.Model, e.Procs)
	}
	type key struct {
		a repro.Algorithm
		m repro.Model
	}
	programs := map[key]program{
		{repro.Radix, repro.CCSAS}: func(m *machine.Machine, in []uint32, c sorts.Config) (*sorts.Result, error) {
			return sorts.RadixCCSAS(m, in, c, false)
		},
		{repro.Radix, repro.CCSASNew}: func(m *machine.Machine, in []uint32, c sorts.Config) (*sorts.Result, error) {
			return sorts.RadixCCSAS(m, in, c, true)
		},
		{repro.Radix, repro.MPI}:     sorts.RadixMPI,
		{repro.Radix, repro.MPISGI}:  sorts.RadixMPI,
		{repro.Radix, repro.SHMEM}:   sorts.RadixSHMEM,
		{repro.Sample, repro.CCSAS}:  sorts.SampleCCSAS,
		{repro.Sample, repro.MPI}:    sorts.SampleMPI,
		{repro.Sample, repro.MPISGI}: sorts.SampleMPI,
		{repro.Sample, repro.SHMEM}:  sorts.SampleSHMEM,
		{repro.Psrs, repro.CCSAS}:    sorts.PsrsCCSAS,
		{repro.Psrs, repro.MPI}:      sorts.PsrsMPI,
		{repro.Psrs, repro.MPISGI}:   sorts.PsrsMPI,
		{repro.Psrs, repro.SHMEM}:    sorts.PsrsSHMEM,
	}
	p, ok := programs[key{e.Algorithm, e.Model}]
	if !ok {
		return nil, cfg, fmt.Errorf("no program for %s/%s", e.Algorithm, e.Model)
	}
	return p, cfg, nil
}
