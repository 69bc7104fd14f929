package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CPU self time by module, from a runtime/pprof CPU profile. Each sample
// is charged to the module of its leaf function (the innermost frame,
// inlined callees included), named by the function's package prefix.
// This splits compose into layers without tracing inside the program.

// modulePrefixes maps function-name prefixes to the module names used
// in the per-layer metrics. Repository modules too small to measure on
// their own, the standard library and the benchmark itself fall into
// "other".
var modulePrefixes = []struct{ prefix, module string }{
	{"mimicnet/internal/sim.", "sim"},
	{"mimicnet/internal/netsim.", "netsim"},
	{"mimicnet/internal/transport.", "transport"},
	{"mimicnet/internal/ml.", "ml"},
	{"mimicnet/internal/core.", "core"},
	{"mimicnet/internal/cluster.", "cluster"},
	{"mimicnet/internal/serve.", "serve"},
	{"mimicnet/internal/durable.", "durable"},
	{"runtime.", "runtime"},
	{"internal/runtime/", "runtime"},
	{"runtime/internal/", "runtime"},
}

// profileModules lists every module moduleOf can return, in report order.
var profileModules = []string{"sim", "netsim", "transport", "ml", "core", "cluster", "serve", "durable", "runtime", "other"}

// moduleOf attributes a function name to a module.
func moduleOf(fn string) string {
	for _, p := range modulePrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.module
		}
	}
	return "other"
}

// ModuleSplit is the per-module share of a CPU profile.
type ModuleSplit struct {
	Samples map[string]int64   `json:"samples"`
	Seconds map[string]float64 `json:"cpu_s"`
	Total   int64              `json:"total_samples"`
}

// Lead returns the module with the most samples and its share of all
// samples (ties go to the module listed first in profileModules).
func (m ModuleSplit) Lead() (string, float64) {
	best, n := "", int64(-1)
	for _, mod := range profileModules {
		if m.Samples[mod] > n {
			best, n = mod, m.Samples[mod]
		}
	}
	if m.Total == 0 {
		return best, 0
	}
	return best, float64(n) / float64(m.Total)
}

// splitProfile decodes a gzip-compressed pprof CPU profile and sums the
// sample counts and CPU nanoseconds of each module.
func splitProfile(gz []byte) (ModuleSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return ModuleSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return ModuleSplit{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return ModuleSplit{}, err
	}
	countIdx, nanosIdx := -1, -1
	for i, vt := range p.sampleTypes {
		switch {
		case p.str(vt[0]) == "samples" && p.str(vt[1]) == "count":
			countIdx = i
		case p.str(vt[0]) == "cpu" && p.str(vt[1]) == "nanoseconds":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return ModuleSplit{}, errors.New("profile: not a CPU profile (no samples/count and cpu/nanoseconds)")
	}
	split := ModuleSplit{Samples: map[string]int64{}, Seconds: map[string]float64{}}
	for _, mod := range profileModules {
		split.Samples[mod] = 0
		split.Seconds[mod] = 0
	}
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) != len(p.sampleTypes) {
			continue
		}
		mod := moduleOf(p.leafName(s.locations[0]))
		split.Samples[mod] += s.values[countIdx]
		split.Seconds[mod] += float64(s.values[nanosIdx]) / 1e9
		split.Total += s.values[countIdx]
	}
	return split, nil
}

// profile holds the subset of profile.proto the split needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string-table indices
	samples     []profSample
	locLeaf     map[uint64]uint64 // location id → innermost function id
	funcName    map[uint64]int64  // function id → name string index
	strings     []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) leafName(loc uint64) string {
	fn, ok := p.locLeaf[loc]
	if !ok {
		return ""
	}
	return p.str(p.funcName[fn])
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType = 1
	profSamples    = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case profSampleType:
			var vt [2]int64
			if err := eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				if num == valueTypeType {
					vt[0] = int64(v)
				} else if num == valueTypeUnit {
					vt[1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case profSamples:
			var s profSample
			if err := eachField(sub, func(num, wire int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(wire, v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return appendVarints(wire, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var leaf uint64
			haveLine := false
			if err := eachField(sub, func(num, _ int, v uint64, line []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					if haveLine {
						return nil // the first line is the innermost frame
					}
					haveLine = true
					return eachField(line, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLeaf[id] = leaf
		case profFunction:
			var id uint64
			var name int64
			if err := eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				if num == functionID {
					id = v
				} else if num == functionName {
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case profStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints handles a repeated scalar field in either encoding: one
// varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, plus its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// sortedModules returns the modules ordered by descending samples, for
// the human-readable report.
func (m ModuleSplit) sortedModules() []string {
	mods := append([]string(nil), profileModules...)
	sort.SliceStable(mods, func(i, j int) bool { return m.Samples[mods[i]] > m.Samples[mods[j]] })
	return mods
}
