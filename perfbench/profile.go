package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the groups a CPU profile's samples are attributed to:
// the simulator's modules, the Go runtime, and "other" for everything
// else (the standard library, repro's root package, this benchmark).
var cpuModules = []string{
	"cache", "coherence", "machine", "memsys", "topology",
	"sorts", "ccsas", "mpi", "shmem", "keys", "trace",
	"runtime", "other",
}

// cpuShares reads a CPU profile as runtime/pprof writes it (gzipped
// protobuf) and returns the share of CPU time attributed to each of
// cpuModules, plus the number of samples. A sample belongs to the
// runtime when its leaf frame is a runtime function other than
// memmove/memclr (copies and clears are charged to their caller);
// otherwise to the innermost repro/internal/<module> frame on its stack;
// otherwise to "other". The shares sum to 1 unless the profile holds no
// samples.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	weight := map[string]int64{}
	var total int64
	samples := 0
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locations {
			frames = append(frames, p.locations[id]...)
		}
		w := s.values[p.valueIndex]
		weight[moduleOf(frames)] += w
		total += w
		samples++
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = float64(weight[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, samples, nil
}

// moduleOf attributes one stack, given leaf first, to a module.
func moduleOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	if isRuntime(leaf) && !strings.HasPrefix(leaf, "runtime.memmove") && !strings.HasPrefix(leaf, "runtime.memclr") {
		return "runtime"
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "repro/internal/")
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// profile is the part of a pprof profile that attribution needs.
type profile struct {
	samples []profSample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
	// valueIndex selects the CPU-time value of each sample.
	valueIndex int
}

type profSample struct {
	locations []uint64
	values    []int64
}

// parseProfile decodes the fields of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that attribution uses.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		samples   []profSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{samples: samples, locations: map[uint64][]string{}, valueIndex: -1}
	for i, t := range types {
		if str(t) == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for id, fns := range locFuncs {
		for _, f := range fns {
			p.locations[id] = append(p.locations[id], str(funcNames[f]))
		}
	}
	for _, s := range samples {
		if len(s.values) <= p.valueIndex {
			return nil, errors.New("profile: sample without a cpu value")
		}
	}
	return p, nil
}

// eachField calls f for each field of a protobuf message: its number,
// its value for varint fields, and its bytes for length-delimited ones.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field that may come packed (b
// holds the values) or unpacked (v is the one value).
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		b = b[n:]
	}
	return nil
}
