package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"mimicnet/internal/sim.(*Simulator).siftDown":  "sim",
		"mimicnet/internal/sim.entryLess":              "sim",
		"mimicnet/internal/netsim.(*Port).enqueue":     "netsim",
		"mimicnet/internal/transport.(*TCP).onAck":     "transport",
		"mimicnet/internal/ml.DotAcc":                  "ml",
		"mimicnet/internal/core.(*Engine).Run.func1":   "core",
		"mimicnet/internal/cluster.(*Simulation).Run":  "cluster",
		"mimicnet/internal/serve.(*Scheduler).runJob":  "serve",
		"mimicnet/internal/durable.(*Journal).Append":  "durable",
		"mimicnet/internal/workload.Generate":          "other",
		"mimicnet/internal/simulator.Fake":             "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Exp":  "other",
		"main.burn": "other",
		"":          "other",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
	return p
}

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.Bytes()) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// testProfile builds a CPU profile with three functions: an ml kernel
// inlined into a core function (one location, two lines), a sim
// function, and a runtime function. Samples use both packed and
// unpacked repeated fields, as runtime/pprof does.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mimicnet/internal/ml.DotAcc", "mimicnet/internal/core.(*InferenceScheduler).flush",
		"mimicnet/internal/sim.(*Simulator).siftDown", "runtime.mallocgc"}
	var p pb
	p.msg(1, new(pb).varint(1, 1).varint(2, 2)) // samples/count
	p.msg(1, new(pb).varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	// Location 1: DotAcc (function 1) inlined into flush (function 2).
	p.msg(4, new(pb).varint(1, 1).msg(4, new(pb).varint(1, 1).varint(2, 10)).msg(4, new(pb).varint(1, 2).varint(2, 20)))
	p.msg(4, new(pb).varint(1, 2).msg(4, new(pb).varint(1, 3)))
	p.msg(4, new(pb).varint(1, 3).msg(4, new(pb).varint(1, 4)))
	for id, name := range []uint64{5, 6, 7, 8} {
		p.msg(5, new(pb).varint(1, uint64(id+1)).varint(2, name))
	}
	// 3 samples in ml (leaf location 1, caller location 2), 2 in sim, 1 in runtime.
	p.msg(2, new(pb).bytes(1, packed(1, 2)).bytes(2, packed(3, 30_000_000)))
	p.msg(2, new(pb).varint(1, 2).varint(2, 2).varint(2, 20_000_000))
	p.msg(2, new(pb).varint(1, 3).bytes(2, packed(1, 10_000_000)))
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestSplitProfileAttributesLeafFrames(t *testing.T) {
	split, err := splitProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if split.Total != 6 {
		t.Fatalf("total samples = %d, want 6", split.Total)
	}
	want := map[string]int64{"ml": 3, "sim": 2, "runtime": 1, "core": 0}
	for mod, n := range want {
		if split.Samples[mod] != n {
			t.Errorf("%s samples = %d, want %d", mod, split.Samples[mod], n)
		}
	}
	if !near(split.Seconds["ml"], 0.03) || !near(split.Seconds["sim"], 0.02) {
		t.Errorf("cpu seconds = %v", split.Seconds)
	}
	if lead, share := split.Lead(); lead != "ml" || !near(share, 0.5) {
		t.Errorf("lead = %s %g, want ml 0.5", lead, share)
	}
}

func TestSplitProfileRejectsBadInput(t *testing.T) {
	if _, err := splitProfile([]byte("not gzip")); err == nil {
		t.Error("accepted non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0x05, 0x01}) // field 1 claims 5 bytes, has 1
	zw.Close()
	if _, err := splitProfile(gz.Bytes()); err == nil {
		t.Error("accepted a truncated profile")
	}
	var empty bytes.Buffer
	zw = gzip.NewWriter(&empty)
	zw.Close()
	if _, err := splitProfile(empty.Bytes()); err == nil {
		t.Error("accepted a profile without CPU sample types")
	}
}
