// Command e2ebench is the end-to-end benchmark of the MimicNet pipeline:
// estimate jobs through the in-process serve.Scheduler, configured as
// `mimicnetd -data-dir` configures it, and validation against
// full-fidelity ground truth through cluster and core.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload cold_estimate --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs; with
// --trace 1 a traced run reports the per-layer split (phase spans, layer
// counters and CPU self time by module). Either way it checks every
// output, prints a human-readable report on standard error, and prints
// one JSON object as the last line of standard output. METRICS.md lists
// the workloads and which layer metric should move which end-to-end
// metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mimicnet/internal/obs"
)

// Metric is one reported quantity.
type Metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (BENCHMARK.json's
// end_to_end, in the same order).
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"estimate_s", "s"},
	{"peak_rss_mb", "MB"},
}

// averaged are the metrics reported as a mean over the run; the others
// are medians. Their inputs vary from model to model and seed to seed by
// more than the host does once rescaled, and a mean averages that out
// with fewer samples than a median.
var averaged = map[string]bool{"wall_s": true, "estimate_s": true}

// perLayer are the metrics of a traced run (BENCHMARK.json's per_layer,
// in the same order). A workload that does not run a layer reports 0.
var perLayer = []Metric{
	{"cluster.smallscale_s", "s"},
	{"cluster.smallscale_events", "count"},
	{"core.dataset_build_s", "s"},
	{"core.dataset_samples", "count"},
	{"core.train_s", "s"},
	{"ml.train_samples_per_s", "1/s"},
	{"ml.train_batches", "count"},
	{"durable.ckpt_writes", "count"},
	{"durable.ckpt_write_s", "s"},
	{"durable.journal_appends", "count"},
	{"durable.fsync_s", "s"},
	{"serve.overhead_s", "s"},
	{"serve.dataset_cache_hits", "count"},
	{"serve.dataset_cache_misses", "count"},
	{"core.compose_build_s", "s"},
	{"core.compose_run_s.n8", "s"},
	{"core.compose_run_s.n16", "s"},
	{"core.compose_run_s.n32", "s"},
	{"core.simsec_per_s", "s/s"},
	{"core.compose_events", "count"},
	{"core.inference_steps", "count"},
	{"core.inference_flushes", "count"},
	{"core.steps_per_flush", "count"},
	{"core.feeder_events", "count"},
	{"core.model_packets", "count"},
	{"ml.batch_lanes_mean", "count"},
	{"ml.pool_submits", "count"},
	{"ml.pool_dispatches", "count"},
	{"sim.barriers", "count"},
	{"sim.barrier_wait_s", "s"},
	{"sim.causality_clamps", "count"},
	{"serve.registry_hit_ratio", "ratio"},
	{"cluster.full_s", "s"},
	{"cluster.full_events", "count"},
	{"sim.events", "count"},
	{"core.validate_s", "s"},
	{"core.dir_w1_ingress", "s"},
	{"core.dir_w1_egress", "s"},
	{"w1_fct_s", "s"},
	{"w1_rtt_s", "s"},
	{"w1_tput_Bps", "B/s"},
	{"serve.queue_wait_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"sim.cpu_s", "s"},
	{"netsim.cpu_s", "s"},
	{"transport.cpu_s", "s"},
	{"ml.cpu_s", "s"},
	{"core.cpu_s", "s"},
	{"cluster.cpu_s", "s"},
	{"serve.cpu_s", "s"},
	{"durable.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"profile.lead_share", "ratio"},
	{"profile.samples", "count"},
	{"trace.overhead_s", "s"},
}

// Bench is one benchmark run's state.
type Bench struct {
	Seed  int64
	Dir   string // per-run scratch: data dirs of the serve stacks
	Src   *counterSource
	Rec   *Recorder // nil when untraced
	Check *Checker

	Stack     *Stack // shared stack of warm_sweep and validate
	Artifacts []Artifact

	samples map[string][]float64 // per-unit samples of timed metrics
	values  map[string]float64   // one value per run: first-unit counts, run totals
	dirs    int

	// Untraced runs rescale end-to-end times to the reference host
	// (calibrate.go). pending holds the times of the current set-up or
	// unit until the calibration after it is known; raw keeps them
	// unscaled for the report.
	calibrate func() time.Duration // nil: keep times as measured
	lastCal   time.Duration
	pending   []timed
	raw       map[string][]float64

	unitAlloc, unitGC uint64 // around each phase call of the current unit
}

// Add records one sample of a timed metric; its value is the median, or
// the mean for an averaged metric.
func (b *Bench) Add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

type timed struct {
	name string
	d    time.Duration
}

// Time records one sample of an end-to-end time; settle rescales it and
// adds it.
func (b *Bench) Time(name string, d time.Duration) { b.pending = append(b.pending, timed{name, d}) }

// settle runs the calibration and rescales the pending times by the mean
// of the calibrations just before and just after them. Without a
// calibrator (traced runs) times are kept as measured.
func (b *Bench) settle() {
	c := b.lastCal
	if b.calibrate != nil {
		b.lastCal = b.calibrate()
		c = (c + b.lastCal) / 2
		b.raw["calibration_s"] = append(b.raw["calibration_s"], b.lastCal.Seconds())
	}
	for _, p := range b.pending {
		b.Add(p.name, rescale(p.d, c))
		b.raw[p.name] = append(b.raw[p.name], p.d.Seconds())
	}
	b.pending = b.pending[:0]
}

// Count records a deterministic count. Only the first unit's value is
// kept, so a count repeats exactly for a seed however many units the run
// completes.
func (b *Bench) Count(unit int, name string, v float64) {
	if unit == 0 {
		b.values[name] = v
	}
}

// Call times fn as a span under parent. In a traced run it also charges
// fn's heap allocation and GC cycles to the current unit.
func (b *Bench) Call(parent int, cat, name string, fn func()) time.Duration {
	if b.Rec == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	c0 := b.Src.Read()
	sp := b.Rec.Begin(parent, cat, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.Rec.End(sp)
	c := b.Src.Read().Sub(c0)
	b.unitAlloc += c.AllocBytes
	b.unitGC += c.GCCycles
	return d
}

// freshDir returns a new, empty directory under the run's scratch.
func (b *Bench) freshDir() string {
	b.dirs++
	return filepath.Join(b.Dir, fmt.Sprintf("d%04d", b.dirs))
}

func main() {
	// One P: the workloads are closed loops with one operation
	// outstanding, and a single busy thread on a shared host is not held
	// up by a sibling thread that lost its core. Compose then runs its
	// sequential engine, whose results equal the sharded one's.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold_estimate | warm_sweep | validate")
	seed := fs.Int64("seed", 1, "workload seed; job inputs derive from it")
	seconds := fs.Int("seconds", 25, "measuring time after set-up")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *Workload
	for _, c := range workloads {
		if c.Name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (cold_estimate, warm_sweep or validate), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rep, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, outDir)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	rep.print(stderr)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outDir, relative to the checkout root, receives results, traces,
// profiles, the ledger and the serve stacks' scratch data.
var outDir = filepath.Join(".bench_build", "e2ebench")

// Result is the last line of standard output.
type Result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]MetricJSON `json:"metrics"`
}

// MetricJSON is one metric value with its unit.
type MetricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is everything one run measured; it is also written to a file
// under the output directory.
type Report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Traced     bool                 `json:"traced"`
	Host       Host                 `json:"host"`
	Result     Result               `json:"result"`
	Dists      map[string]Dist      `json:"dists"`
	Raw        map[string]Dist      `json:"raw,omitempty"` // end-to-end times before rescaling, and the calibration
	Samples    map[string][]float64 `json:"samples"`       // every sample, in run order (end-to-end times rescaled)
	RawSamples map[string][]float64 `json:"raw_samples,omitempty"`
	Values     map[string]float64   `json:"values,omitempty"`
	Profile    *ModuleSplit         `json:"profile,omitempty"`
	Lead       string               `json:"lead_module,omitempty"`
	Ledger     LedgerReport         `json:"ledger"`
	Ops        []Op                 `json:"ops"`
	Files      []string             `json:"files"`
}

func execute(w *Workload, seed int64, seconds time.Duration, traced bool, outDir string) (*Report, error) {
	host, err := hostFingerprint(".")
	if err != nil {
		return nil, err
	}
	src, err := newCounterSource(obs.Default())
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &Bench{
		Seed: seed, Dir: runDir, Src: src, Check: newChecker(),
		samples: map[string][]float64{}, values: map[string]float64{}, raw: map[string][]float64{},
	}
	if !traced {
		cal := newCalibrator()
		cal.Run() // first touch of its memory
		b.calibrate = cal.Run
		b.lastCal = cal.Run()
	}
	defer func() {
		if b.Stack != nil {
			_ = b.Stack.Close() // the run's outcome is already decided
		}
	}()

	for k := 0; k < w.Setups; k++ {
		t0 := time.Now()
		if err := w.Setup(b, k); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.Time("setup_s", time.Since(t0))
		b.settle()
	}

	trace := 0
	if traced {
		trace = 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.Name, seed, trace)
	rep := &Report{Workload: w.Name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced, Host: host}
	profPath := filepath.Join(outDir, "profile-"+tag+".pb.gz")
	var prof *os.File
	if traced {
		b.Rec = newRecorder()
		if prof, err = os.Create(profPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	var rss *rssSampler
	if !traced {
		rss = startRSSSampler(5 * time.Millisecond)
	}
	start := time.Now()
	units := 0
	for ; units == 0 || time.Since(start) < seconds; units++ {
		t0 := time.Now()
		if traced {
			b.unitAlloc, b.unitGC = 0, 0
			w.Traced(b, units)
			b.Add("go.alloc_mb", float64(b.unitAlloc)/1e6)
			b.Add("go.gc_cycles", float64(b.unitGC))
		} else {
			w.Unit(b, units)
		}
		b.Time("wall_s", time.Since(t0))
		if rss != nil {
			b.Add("peak_rss_mb", rss.Take()/1e6)
		}
		b.settle()
	}
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		gz, err := os.ReadFile(profPath)
		if err != nil {
			return nil, err
		}
		split, err := splitProfile(gz)
		if err != nil {
			return nil, err
		}
		rep.Profile = &split
		rep.Files = append(rep.Files, profPath)
	} else {
		rss.Stop()
	}

	if rep.Ledger, err = checkLedger(filepath.Join(outDir, "ledger.json"), host, b.Check); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	rep.Ops = b.Check.ops
	rep.Values = b.values
	rep.Samples, rep.RawSamples = b.samples, b.raw
	rep.Dists = map[string]Dist{}
	for k, v := range b.samples {
		rep.Dists[k] = distOf(v)
	}
	if !traced {
		rep.Raw = map[string]Dist{}
		for k, v := range b.raw {
			rep.Raw[k] = distOf(v)
		}
	}
	rep.Result = Result{
		Attempted: b.Check.Attempted(),
		Failed:    b.Check.Failed(),
		Metrics:   map[string]MetricJSON{},
	}
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
	list := endToEnd
	if traced {
		list = perLayer
		rep.layerProfileMetrics(b)
	}
	for _, m := range list {
		v, ok := b.values[m.Name]
		switch {
		case ok:
		case averaged[m.Name]:
			v = rep.Dists[m.Name].Mean
		default:
			v = rep.Dists[m.Name].Median
		}
		rep.Result.Metrics[m.Name] = MetricJSON{Value: v, Unit: m.Unit}
	}

	if traced {
		path := filepath.Join(outDir, "trace-"+tag+".json")
		if err := b.Rec.WriteChromeTrace(path, map[string]any{"workload": w.Name, "seed": seed, "host": host}); err != nil {
			return nil, err
		}
		rep.Files = append(rep.Files, path)
	}
	path := filepath.Join(outDir, "result-"+tag+".json")
	rep.Files = append(rep.Files, path)
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerProfileMetrics turns the module split into per-layer metrics.
func (rep *Report) layerProfileMetrics(b *Bench) {
	p := rep.Profile
	for _, mod := range profileModules {
		b.values[mod+".cpu_s"] = p.Seconds[mod]
	}
	lead, share := p.Lead()
	rep.Lead = lead
	b.values["profile.lead_share"] = share
	b.values["profile.samples"] = float64(p.Total)
}

// print writes the human-readable report.
func (rep *Report) print(w io.Writer) {
	h := rep.Host
	mode := "untraced: end-to-end metrics"
	if rep.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "e2ebench %s seed=%d seconds=%g (%s)\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d gemm=%s go=%s commit=%s source=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Gemm, h.GoVersion, h.Commit, h.Source)
	list := endToEnd
	if rep.Traced {
		list = perLayer
	}
	for _, m := range list {
		v := rep.Result.Metrics[m.Name].Value
		if d, ok := rep.Dists[m.Name]; ok && d.N > 1 {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s per unit: n=%d mean %.6g median %.6g q1 %.6g q3 %.6g\n", m.Name, v, m.Unit, d.N, d.Mean, d.Median, d.Q1, d.Q3)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s\n", m.Name, v, m.Unit)
		}
		if d, ok := rep.Raw[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14s %-6s measured: n=%d mean %.6g median %.6g q1 %.6g q3 %.6g\n", "", "", "", d.N, d.Mean, d.Median, d.Q1, d.Q3)
		}
	}
	if d, ok := rep.Raw["calibration_s"]; ok {
		fmt.Fprintf(w, "calibration: n=%d median %.6g s q1 %.6g q3 %.6g (reference host %.6g s); times above are rescaled to the reference host\n",
			d.N, d.Median, d.Q1, d.Q3, refCalibration.Seconds())
	}
	if p := rep.Profile; p != nil {
		var parts []string
		for _, mod := range p.sortedModules() {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", mod, 100*ratio(float64(p.Samples[mod]), float64(p.Total))))
		}
		lead, share := p.Lead()
		fmt.Fprintf(w, "cpu by module (%d samples): %s\n", p.Total, strings.Join(parts, ", "))
		fmt.Fprintf(w, "lead module: %s with %.1f%% of samples\n", lead, 100*share)
	}
	r := rep.Result
	fmt.Fprintf(w, "check: %d operations, %d failed (fail_frac %.4g); ledger compared %d, added %d, mismatched %d\n",
		r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)),
		rep.Ledger.Compared, rep.Ledger.Added, rep.Ledger.Mismatched)
	for _, f := range rep.Ledger.Flagged {
		fmt.Fprintf(w, "flagged: %s\n", f)
	}
	errs := map[string]bool{}
	for _, op := range rep.Ops {
		if op.Err != "" {
			errs[op.Key+": "+op.Err] = true
		}
	}
	keys := make([]string, 0, len(errs))
	for k := range errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "FAILED %s\n", k)
	}
	for _, f := range rep.Files {
		fmt.Fprintf(w, "wrote %s\n", f)
	}
}
