package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans of the traced run, recorded in the benchmark's own code around
// its calls into the program: job → phase → layer call. They are kept in
// memory and written once, at the end of the run, as Chrome trace-event
// JSON (chrome://tracing and ui.perfetto.dev open it as is).

// Span is one timed call. Parent is the index of the enclosing span, or
// -1 for a job; spans of one job share its Job identifier.
type Span struct {
	Name   string
	Cat    string // job | phase | layer
	Job    int
	Parent int
	Start  time.Duration // since the recorder's origin
	Dur    time.Duration
}

// Recorder collects spans. A nil *Recorder records nothing, so untraced
// code paths call the same methods at no cost.
type Recorder struct {
	origin time.Time
	spans  []Span
	jobs   int
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Job opens a new job span and returns its index.
func (r *Recorder) Job(name string) int {
	if r == nil {
		return -1
	}
	r.jobs++
	return r.open(name, "job", r.jobs, -1)
}

// Begin opens a child span of parent and returns its index.
func (r *Recorder) Begin(parent int, cat, name string) int {
	if r == nil || parent < 0 {
		return -1
	}
	return r.open(name, cat, r.spans[parent].Job, parent)
}

func (r *Recorder) open(name, cat string, job, parent int) int {
	r.spans = append(r.spans, Span{Name: name, Cat: cat, Job: job, Parent: parent, Start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// End closes span i.
func (r *Recorder) End(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].Dur = time.Since(r.origin) - r.spans[i].Start
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTime returns span i's duration minus the part its direct children
// cover (children never overlap: the benchmark calls layers one at a
// time).
func (r *Recorder) SelfTime(i int) time.Duration {
	self := r.spans[i].Dur
	for _, s := range r.spans {
		if s.Parent == i {
			self -= s.Dur
		}
	}
	return self
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as complete ("X") trace events, one
// track per job, with each span's self time and parent in its args.
func (r *Recorder) WriteChromeTrace(path string, meta map[string]any) error {
	events := make([]traceEvent, 0, len(r.Spans()))
	for i, s := range r.Spans() {
		args := map[string]any{"self_us": float64(r.SelfTime(i)) / 1e3}
		if s.Parent >= 0 {
			args["parent"] = r.spans[s.Parent].Name
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: s.Job, Args: args,
		})
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
