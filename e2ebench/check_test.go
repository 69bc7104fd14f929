package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mimicnet/internal/cluster"
	"mimicnet/internal/serve"
)

func sampleResults() cluster.Results {
	return cluster.Results{
		FCTs:        []float64{0.001, 0.002, 0.004},
		Throughputs: []float64{1e6, 2e6},
		RTTs:        []float64{0.0005},
		FCTByID:     map[string]float64{"a": 0.001, "b": 0.002, "c": 0.004},
		Events:      1000, Packets: 300, Drops: 2,
	}
}

func TestHashResultsIsStableAndSensitive(t *testing.T) {
	base := hashResults(sampleResults())
	if base != hashResults(sampleResults()) {
		t.Fatal("same results hash differently (map order must not matter)")
	}
	mutations := map[string]func(*cluster.Results){
		"fct":        func(r *cluster.Results) { r.FCTs[1] = 0.0020000001 },
		"throughput": func(r *cluster.Results) { r.Throughputs = r.Throughputs[:1] },
		"rtt":        func(r *cluster.Results) { r.RTTs[0] = 0.0006 },
		"per-flow":   func(r *cluster.Results) { r.FCTByID["b"] = 0.003 },
		"flow id":    func(r *cluster.Results) { delete(r.FCTByID, "c"); r.FCTByID["d"] = 0.004 },
		"events":     func(r *cluster.Results) { r.Events++ },
		"packets":    func(r *cluster.Results) { r.Packets++ },
		"drops":      func(r *cluster.Results) { r.Drops++ },
		"cancelled":  func(r *cluster.Results) { r.Cancelled = true },
	}
	for name, mutate := range mutations {
		r := sampleResults()
		mutate(&r)
		if hashResults(r) == base {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestHashSummaryIgnoresWallClock(t *testing.T) {
	s := serve.Summary{Events: 10, FlowsCompleted: 3, FCTSeconds: serve.Dist{N: 3, P50: 0.01}}
	h := hashSummary(s)
	s.TrainMs, s.ComposeMs, s.SimSecPerSec, s.CacheHit = 1200, 300, 0.9, true
	if hashSummary(s) != h {
		t.Error("wall-clock fields or the cache flag changed the hash")
	}
	s.Events++
	if hashSummary(s) == h {
		t.Error("a count change did not change the hash")
	}
}

func TestCheckerFailsRepeatMismatch(t *testing.T) {
	c := newChecker()
	c.Record("k", "h1", nil)
	c.Record("k", "h1", nil)
	c.Record("other", "h2", nil)
	if c.Failed() != 0 || c.Attempted() != 3 {
		t.Fatalf("attempted %d failed %d", c.Attempted(), c.Failed())
	}
	c.Record("k", "h3", nil)
	c.Record("job", "", errString("job ended failed"))
	if c.Failed() != 2 || c.Attempted() != 5 {
		t.Fatalf("attempted %d failed %d, want 5 and 2", c.Attempted(), c.Failed())
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestLedgerComparesAcrossRunsOfOneHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	host := Host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Gemm: "avx2", GoVersion: "go1", Source: "s1"}

	first := newChecker()
	first.Record("a", "h1", nil)
	first.Record("b", "h2", nil)
	rep, err := checkLedger(path, host, first)
	if err != nil || rep.Added != 2 || rep.Compared != 0 {
		t.Fatalf("first run: %+v %v", rep, err)
	}

	second := newChecker()
	second.Record("a", "h1", nil)
	second.Record("b", "changed", nil)
	rep, err = checkLedger(path, host, second)
	if err != nil || rep.Compared != 2 || rep.Mismatched != 1 || second.Failed() != 1 {
		t.Fatalf("second run: %+v %v, failed %d", rep, err, second.Failed())
	}

	other := host
	other.Gemm = "scalar"
	third := newChecker()
	third.Record("b", "changed", nil)
	rep, err = checkLedger(path, other, third)
	if err != nil || rep.Compared != 0 || third.Failed() != 0 {
		t.Fatalf("other host: %+v %v", rep, err)
	}
	if len(rep.Flagged) != 1 || !strings.Contains(rep.Flagged[0], "not compared") {
		t.Errorf("a different host fingerprint was not flagged: %v", rep.Flagged)
	}
}

func TestHostKeyCoversEveryField(t *testing.T) {
	h := Host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Gemm: "avx2", GoVersion: "go1", Commit: "c", Source: "s"}
	for name, change := range map[string]func(*Host){
		"cpu": func(h *Host) { h.CPU = "y" }, "nproc": func(h *Host) { h.NProc = 4 },
		"gomaxprocs": func(h *Host) { h.GOMAXPROCS = 1 }, "gemm": func(h *Host) { h.Gemm = "sse2" },
		"go": func(h *Host) { h.GoVersion = "go2" }, "commit": func(h *Host) { h.Commit = "d" },
		"source": func(h *Host) { h.Source = "t" },
	} {
		g := h
		change(&g)
		if g.Key() == h.Key() {
			t.Errorf("changing %s kept the fingerprint key", name)
		}
	}
}
