package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecorderSelfTimeAndChromeTrace(t *testing.T) {
	r := newRecorder()
	job := r.Job("job")
	ph := r.Begin(job, "phase", "train")
	call := r.Begin(ph, "layer", "core.TrainModelsCkpt")
	time.Sleep(2 * time.Millisecond)
	r.End(call)
	r.End(ph)
	r.End(job)

	if self, dur := r.SelfTime(ph), r.Spans()[ph].Dur; self < 0 || self > dur-r.Spans()[call].Dur+time.Nanosecond {
		t.Errorf("phase self time %v of %v", self, dur)
	}
	for _, s := range r.Spans() {
		if s.Job != 1 {
			t.Errorf("span %s has job %d, want 1", s.Name, s.Job)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteChromeTrace(path, map[string]any{"workload": "w"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("bad event %+v", e)
		}
	}
	if doc.TraceEvents[2].Args["parent"] != "train" || doc.TraceEvents[2].Dur < 2000 {
		t.Errorf("layer event = %+v", doc.TraceEvents[2])
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	j := r.Job("x")
	r.End(r.Begin(j, "phase", "y"))
	if j != -1 || r.Spans() != nil {
		t.Error("nil recorder recorded")
	}
}
