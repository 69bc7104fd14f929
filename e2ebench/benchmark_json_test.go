package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and
// metrics this program reports; the two must agree exactly.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, impl []Metric) {
		if len(declared) != len(impl) {
			t.Errorf("%s: %d declared, %d reported", kind, len(declared), len(impl))
			return
		}
		for i, m := range declared {
			if m.Name != impl[i].Name || m.Unit != impl[i].Unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, m.Name, m.Unit, impl[i].Name, impl[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
