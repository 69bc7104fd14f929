// Package mimicnet's root benchmark suite regenerates every table and
// figure of the paper's evaluation (one Benchmark per table/figure; see
// DESIGN.md's per-experiment index). Each benchmark prints the
// corresponding table to stdout, so
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// captures the full reproduction. The workload is scaled down relative to
// the paper (see EXPERIMENTS.md); pass -tags or edit benchOptions to run
// closer to the paper's regime. cmd/sweep runs the same experiments with
// configurable scale.
package mimicnet

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/experiments"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/stats"
	"mimicnet/internal/workload"
)

// benchOptions returns the shared scaled-down configuration.
func benchOptions() experiments.Options {
	return experiments.Default()
}

var (
	sharedOnce   sync.Once
	sharedRunner *experiments.Runner
)

// runner returns a shared Runner so the fixed training cost is paid once
// across the whole benchmark suite (as in the paper's methodology).
func runner() *experiments.Runner {
	sharedOnce.Do(func() {
		sharedRunner = experiments.NewRunner(benchOptions())
	})
	return sharedRunner
}

// emit runs one experiment per benchmark iteration and prints its table.
func emit(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig1_FCTAccuracyVsSize(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig1([]int{4, 8, 16, 32})
	})
}

func BenchmarkFig2_SimulatorScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig2([]int{4, 8, 16, 32})
	})
}

func BenchmarkTable1_FeatureExtraction(b *testing.B) {
	r := runner()
	emit(b, r.Table1)
}

func BenchmarkFig5_DropLossFunctions(b *testing.B) {
	r := runner()
	emit(b, r.Fig5)
}

func BenchmarkFig6_LatencyLossFunctions(b *testing.B) {
	r := runner()
	emit(b, r.Fig6)
}

func BenchmarkFig7_BaselineAccuracy(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig7(2, 16)
	})
}

func BenchmarkFig8_ThroughputScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig8([]int{4, 8, 16})
	})
}

func BenchmarkFig9_RTTScalability(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig9([]int{4, 8, 16})
	})
}

func BenchmarkFig10_Speedup(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig10([]int{8, 16, 32}, []int{2, 4})
	})
}

func BenchmarkFig11_SimulationLatency(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig11([]int{8, 16, 32})
	})
}

func BenchmarkFig12_SimulationThroughput(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig12([]int{8, 16, 32})
	})
}

func BenchmarkTable2_TimeBreakdown(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Table2(32)
	})
}

func BenchmarkFig13_DCTCPTuning(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig13(8, []int{5, 10, 20, 40, 60})
	})
}

func BenchmarkFig14_ProtocolComparison(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig14(8)
	})
}

func BenchmarkFig16_WindowSizeTraining(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig16([]int{1, 2, 5, 12})
	})
}

func BenchmarkFig17_WindowSizeInference(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig17([]int{1, 2, 5, 12})
	})
}

func BenchmarkFig18_ProtocolThroughput(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig18(8)
	})
}

func BenchmarkFig19_ProtocolRTT(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig19(8)
	})
}

func BenchmarkFig20_HeavyLoad(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig20(8)
	})
}

func BenchmarkFig21_LatencyVsLength(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		lat, _, err := r.Fig21And22(16, []sim.Time{
			150 * sim.Millisecond, 300 * sim.Millisecond, 600 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lat.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig22_ThroughputVsLength(b *testing.B) {
	r := runner()
	for i := 0; i < b.N; i++ {
		_, tput, err := r.Fig21And22(16, []sim.Time{
			150 * sim.Millisecond, 300 * sim.Millisecond, 600 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tput.Fprint(os.Stdout)
		}
	}
}

func BenchmarkFig23_ComputeConsumption(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.Fig23([]int{4, 8, 16})
	})
}

// inferenceWidthMix is the fused-step width histogram of a composed
// warm-sweep run (N = 8, 16 and 32 compositions of set-up models): the
// share of StepLanes calls, in percent, at each benchmarked width, with
// every measured width folded onto the nearest one in log scale. A third
// of all calls advance a single lane and 71% fewer than 8.
var inferenceWidthMix = []struct{ lanes, pct int }{
	{1, 33}, {2, 9}, {4, 19}, {7, 11}, {8, 9}, {16, 13}, {32, 6},
}

// BenchmarkMimicInference measures the batched Mimic inference engine
// against the per-packet path at the fused-step widths composed runs
// actually issue (one lane per Mimic×direction stream with a request in
// the flush round). The reported ns/step metric is the per-model-step
// cost. batched/mix replays 100 calls with inferenceWidthMix's width
// shares, so its ns/step is the histogram-weighted cost of one step in
// production; the per-width rows show where that cost comes from.
func BenchmarkMimicInference(b *testing.B) {
	cfg := ml.DefaultModelConfig(23, 8) // feature width of the default topology
	model, err := ml.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewStream(1)
	// Inputs shaped like real extracted features: one-hot blocks for
	// rack(2)/server(4)/agg(2)/core(4), 7 scalars, one-hot congestion(4).
	featureVec := func() []float64 {
		row := make([]float64, 0, cfg.Features)
		for _, block := range []int{2, 4, 2, 4} {
			hot := rng.Intn(block)
			for j := 0; j < block; j++ {
				if j == hot {
					row = append(row, 1)
				} else {
					row = append(row, 0)
				}
			}
		}
		for j := 0; j < 7; j++ {
			row = append(row, rng.Float64())
		}
		hot := rng.Intn(4)
		for j := 0; j < 4; j++ {
			if j == hot {
				row = append(row, 1)
			} else {
				row = append(row, 0)
			}
		}
		return row
	}
	// FLOP accounting: FLOPsPerStep multiply-adds per lane-step, and
	// the weight bytes each step streams (8 bytes per multiply-add
	// pair), so -bench output carries GFLOP/s and MB/s per mode and
	// per GEMM kernel family (MIMICNET_GEMM selects the kernel).
	flopStep := model.FLOPsPerStep()
	maxLanes := 0
	for _, w := range inferenceWidthMix {
		if w.lanes > maxLanes {
			maxLanes = w.lanes
		}
	}
	for _, w := range inferenceWidthMix {
		B := w.lanes
		xs := make([][]float64, B)
		for i := range xs {
			xs[i] = featureVec()
		}

		b.Run(fmt.Sprintf("per-packet/B=%d", B), func(b *testing.B) {
			sms := make([]*ml.StatefulModel, B)
			for i := range sms {
				sms[i] = ml.NewStatefulModel(model)
			}
			b.SetBytes(int64(8 * flopStep / 2 * float64(B)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lane := 0; lane < B; lane++ {
					_ = sms[lane].Predict(xs[lane])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/step")
			b.ReportMetric(flopStep*float64(b.N*B)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})

		b.Run(fmt.Sprintf("batched/B=%d", B), func(b *testing.B) {
			bat := ml.NewBatchedStatefulModel(model, B, nil)
			lanes := make([]int, B)
			for i := range lanes {
				lanes[i] = i
			}
			preds := make([]ml.Prediction, B)
			b.SetBytes(int64(8 * flopStep / 2 * float64(B)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bat.StepLanes(lanes, xs, nil, preds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/step")
			b.ReportMetric(flopStep*float64(b.N*B)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}

	b.Run("batched/mix", func(b *testing.B) {
		bat := ml.NewBatchedStatefulModel(model, maxLanes, nil)
		lanes := make([]int, maxLanes)
		xs := make([][]float64, maxLanes)
		for i := range lanes {
			lanes[i] = i
			xs[i] = featureVec()
		}
		preds := make([]ml.Prediction, maxLanes)
		// Interleave the widths (one call per width per pass while its
		// share lasts) so no width runs as one long, cache-warm streak.
		var calls []int
		steps := 0
		for pass := 0; pass < 100; pass++ {
			for _, w := range inferenceWidthMix {
				if pass < w.pct {
					calls = append(calls, w.lanes)
					steps += w.lanes
				}
			}
		}
		b.SetBytes(int64(8 * flopStep / 2 * float64(steps)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, B := range calls {
				bat.StepLanes(lanes[:B], xs[:B], nil, preds[:B])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		b.ReportMetric(flopStep*float64(b.N*steps)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

// trainModeStats is one row of BENCH_train.json.
type trainModeStats struct {
	Mode          string  `json:"mode"`
	GemmKernel    string  `json:"gemm_kernel"`
	BatchSize     int     `json:"batch_size"`
	Runs          int     `json:"runs"`
	Samples       int     `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_second"`
	NsPerSample   float64 `json:"ns_per_sample"`
	AllocsPerSamp float64 `json:"allocs_per_sample"`
}

// BenchmarkTrain measures the minibatch trainer (the training-side mirror
// of BenchmarkMimicInference) against the retained sequential reference
// on one identical synthetic dataset shaped like real extracted features.
// One iteration = one full training epoch over the dataset. The batched
// trainer at B=16 should be at least 2x the sequential samples/sec even
// on one core: each optimizer step amortizes the clip+Adam full-parameter
// sweep over B samples, and the GEMM formulation removes the per-step
// slice allocations of the scalar path.
//
// When $BENCH_TRAIN_JSON names a file (see `make bench-train`), the same
// numbers are written there as JSON for machine comparison.
func BenchmarkTrain(b *testing.B) {
	const (
		features = 23 // feature width of the default topology
		window   = 8
		nSamples = 512
	)
	rng := stats.NewStream(1)
	samples := make([]ml.Sample, nSamples)
	for i := range samples {
		w := make([][]float64, window)
		for t := range w {
			row := make([]float64, features)
			for j := range row {
				row[j] = rng.Float64()
			}
			w[t] = row
		}
		samples[i] = ml.Sample{
			Window:  w,
			Latency: rng.Float64(),
			Dropped: rng.Float64() < 0.1,
			ECN:     rng.Float64() < 0.2,
		}
	}

	var order []string
	report := map[string]trainModeStats{}
	for _, m := range []struct {
		name  string
		batch int
	}{
		{"sequential", 1},
		{"batched/B=8", 8},
		{"batched/B=16", 16},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			cfg := ml.DefaultModelConfig(features, window)
			cfg.Epochs = 1
			cfg.BatchSize = m.batch
			model, err := ml.NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// ~forward + 2x backward over the window per sample; one
			// iteration is a full epoch over the dataset.
			flopSample := 3 * model.FLOPsPerStep() * float64(window)
			b.SetBytes(int64(8 * flopSample / 2 * float64(nSamples)))
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Train(samples)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			total := nSamples * b.N
			st := trainModeStats{
				Mode:          m.name,
				GemmKernel:    ml.GemmKernelName(),
				BatchSize:     m.batch,
				Runs:          b.N,
				Samples:       nSamples,
				SamplesPerSec: float64(total) / b.Elapsed().Seconds(),
				NsPerSample:   float64(b.Elapsed().Nanoseconds()) / float64(total),
				AllocsPerSamp: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
			}
			b.ReportMetric(st.SamplesPerSec, "samples/sec")
			b.ReportMetric(st.NsPerSample, "ns/sample")
			b.ReportMetric(st.AllocsPerSamp, "allocs/sample")
			b.ReportMetric(flopSample*float64(total)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			if _, seen := report[m.name]; !seen {
				order = append(order, m.name)
			}
			report[m.name] = st
		})
	}

	if path := os.Getenv("BENCH_TRAIN_JSON"); path != "" && len(report) > 0 {
		rows := make([]trainModeStats, 0, len(order))
		for _, name := range order {
			rows = append(rows, report[name])
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

var (
	composeBenchOnce sync.Once
	composeBenchArt  *core.Artifacts
	composeBenchErr  error
)

// composeBenchBase mirrors the fast 2-cluster config the core tests
// train on: small enough that the fixed training cost stays in seconds.
func composeBenchBase() cluster.Config {
	cfg := cluster.DefaultConfig(2)
	cfg.Workload = workload.DefaultConfig(20_000)
	cfg.Workload.Duration = 150 * sim.Millisecond
	cfg.Workload.Load = 0.7
	return cfg
}

// composeBenchArtifacts trains one small artifact set shared across all
// iterations of BenchmarkComposedRun.
func composeBenchArtifacts(b *testing.B) *core.Artifacts {
	b.Helper()
	composeBenchOnce.Do(func() {
		pcfg := core.DefaultPipelineConfig(composeBenchBase())
		pcfg.SmallScaleDuration = 200 * sim.Millisecond
		tc := core.DefaultTrainConfig()
		tc.Dataset.Window = 6
		tc.Model = ml.DefaultModelConfig(0, 6)
		tc.Model.Hidden = 12
		tc.Model.Epochs = 2
		pcfg.Train = tc
		composeBenchArt, composeBenchErr = core.RunPipeline(pcfg)
	})
	if composeBenchErr != nil {
		b.Fatal(composeBenchErr)
	}
	return composeBenchArt
}

// composeModeStats is one row of BENCH_compose.json.
type composeModeStats struct {
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	Runs           int     `json:"runs"`
	EventsPerRun   uint64  `json:"events_per_run"`
	NsPerSimSecond float64 `json:"ns_per_simulated_second"`
	EventsPerSec   float64 `json:"events_per_second"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// composeBaselinePreRefactor is this benchmark's output measured at the
// last commit where Composed was its own runtime, immediately before the
// role-based engine replaced it (same machine, same config). It is
// embedded in BENCH_compose.json next to the fresh rows so the
// refactor's zero-regression claim stays checkable from the artifact
// alone.
var composeBaselinePreRefactor = []composeModeStats{
	{Mode: "sequential", Workers: 0, Runs: 3, EventsPerRun: 115081,
		NsPerSimSecond: 779284904.4, EventsPerSec: 984500.9, AllocsPerEvent: 2.2203},
	{Mode: "sharded/w=8", Workers: 8, Runs: 3, EventsPerRun: 115925,
		NsPerSimSecond: 1098063120, EventsPerSec: 703815.0, AllocsPerEvent: 2.8386},
}

// BenchmarkComposedRun measures the production composed estimate at N=8
// clusters: the sequential event loop versus the sharded
// one-LP-per-cluster run (the tentpole of the sharding PR). Each
// iteration composes and runs a fresh simulation, as a real estimate
// would. Reported metrics: ns of wall-clock per simulated second,
// processed events per wall-clock second, and heap allocations per
// event (composition included — it is part of every estimate).
//
// When $BENCH_COMPOSE_JSON names a file (see `make bench-json`), the
// same numbers are written there as JSON for machine comparison. The
// speedup of sharded over sequential only materializes with
// GOMAXPROCS > 1; on a single core the sharded run degrades to the
// windowed serial schedule and should roughly tie.
func BenchmarkComposedRun(b *testing.B) {
	art := composeBenchArtifacts(b)
	const clusters = 8
	const horizon = 150 * sim.Millisecond

	// The runner invokes each sub-benchmark more than once (a probe run,
	// then the measured one); keep only the last stats per mode.
	var order []string
	report := map[string]composeModeStats{}
	for _, m := range []struct {
		name       string
		shardedRun int
		workers    int
		roleVector bool // construct via NewEngine+ComposedRoles instead of Compose
	}{
		{"sequential", -1, 0, false},
		{"sharded/w=8", 1, 8, false},
		// The same composition through the explicit role-vector API —
		// Compose is a thin wrapper over it, so this row pins the direct
		// engine path's cost at the wrapper's level.
		{"engine-roles/w=8", 1, 8, true},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var events uint64
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := composeBenchBase()
				cfg.Topo = cfg.Topo.WithClusters(clusters)
				cfg.ShardedRun = m.shardedRun
				cfg.NumWorkers = m.workers
				var comp *core.Engine
				var err error
				if m.roleVector {
					comp, err = core.NewEngine(cfg, core.ComposedRoles(clusters), art.Models)
				} else {
					comp, err = core.Compose(cfg, art.Models)
				}
				if err != nil {
					b.Fatal(err)
				}
				comp.Run(horizon)
				res := comp.Results()
				if len(res.FCTByID) == 0 {
					b.Fatal("benchmark run completed no flows")
				}
				events = res.Events
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			totalEvents := events * uint64(b.N)
			simSeconds := horizon.Seconds()
			st := composeModeStats{
				Mode:           m.name,
				Workers:        m.workers,
				Runs:           b.N,
				EventsPerRun:   events,
				NsPerSimSecond: float64(b.Elapsed().Nanoseconds()) / float64(b.N) / simSeconds,
				EventsPerSec:   float64(totalEvents) / b.Elapsed().Seconds(),
				AllocsPerEvent: float64(ms1.Mallocs-ms0.Mallocs) / float64(totalEvents),
			}
			b.ReportMetric(st.NsPerSimSecond, "ns/simsec")
			b.ReportMetric(st.EventsPerSec, "events/sec")
			b.ReportMetric(st.AllocsPerEvent, "allocs/event")
			if _, seen := report[m.name]; !seen {
				order = append(order, m.name)
			}
			report[m.name] = st
		})
	}

	if path := os.Getenv("BENCH_COMPOSE_JSON"); path != "" && len(report) > 0 {
		rows := make([]composeModeStats, 0, len(order))
		for _, name := range order {
			rows = append(rows, report[name])
		}
		out := struct {
			PreRefactor []composeModeStats `json:"pre_refactor_baseline"`
			Modes       []composeModeStats `json:"modes"`
		}{composeBaselinePreRefactor, rows}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// datasetBuildStats is one row of BENCH_dataset.json.
type datasetBuildStats struct {
	Layout string `json:"layout"`
	Runs   int    `json:"runs"`
	// Records/Samples per build, and the per-sample irreducible payload:
	// one feature row (8*width) + latency (8) + two flags (2).
	Samples          int     `json:"samples"`
	PayloadPerSample float64 `json:"payload_bytes_per_sample"`

	NsPerSample        float64 `json:"ns_per_sample"`
	AllocsPerSample    float64 `json:"allocs_per_sample"`
	BytesPerSample     float64 `json:"alloc_bytes_per_sample"`
	OverheadPerSample  float64 `json:"overhead_bytes_per_sample"`
	TrainSamplesPerSec float64 `json:"train_samples_per_second"`
}

// synthBoundaryTrace fabricates a boundary trace shaped like the real
// tracer's output: monotone entries, plausible latencies, a few drops
// and CE marks.
func synthBoundaryTrace(n int, spec core.FeatureSpec) []*core.TraceRecord {
	rng := stats.NewStream(17)
	records := make([]*core.TraceRecord, n)
	entry := sim.Time(0)
	for i := range records {
		entry += sim.Time(1000 + rng.Intn(20_000)) // 1–21 us gaps
		r := &core.TraceRecord{
			PktID: uint64(i), Dir: core.Ingress, Matched: true,
			Entry: entry,
			Info: core.PacketInfo{
				LocalRack:   rng.Intn(spec.Racks),
				LocalServer: rng.Intn(spec.Servers),
				LocalAgg:    rng.Intn(spec.Aggs),
				Core:        rng.Intn(spec.Cores),
				SizeBytes:   64 + rng.Intn(1436),
				IsAck:       rng.Float64() < 0.4,
				ECT:         true,
				Priority:    rng.Intn(8),
				ArrivalTime: entry,
			},
		}
		if rng.Float64() < 0.01 {
			r.Dropped = true
		} else {
			r.Exit = entry + sim.Time(5_000+rng.Intn(400_000))
			r.CEOut = rng.Float64() < 0.05
		}
		records[i] = r
	}
	return records
}

// legacyBuildDataset replicates the seed's window-of-slices dataset
// builder: per-sample materialized padded windows and grow-by-append
// banks. It is the baseline the columnar core.BuildDataset is measured
// against (the builders produce bit-identical features and targets; see
// core's TestBuildDatasetMatchesLegacyLayout).
func legacyBuildDataset(records []*core.TraceRecord, spec core.FeatureSpec, cfg core.DatasetConfig) []ml.Sample {
	lo, hi := 1e300, -1e300
	for _, r := range records {
		if r.Dropped {
			continue
		}
		if l := r.Latency(); l < lo {
			lo = l
		}
		if l := r.Latency(); l > hi {
			hi = l
		}
	}
	disc := ml.Discretizer{Lo: lo, Hi: hi, D: cfg.LatencyBins}
	ex := core.NewExtractor(spec, lo, hi)
	width := spec.Width()
	window := make([][]float64, 0, cfg.Window)
	var samples []ml.Sample
	var infoBank []core.PacketInfo
	var interarrivals []float64
	lastEntry := -1.0
	for _, r := range records {
		feat := ex.Features(r.Info)
		infoBank = append(infoBank, r.Info)
		if lastEntry >= 0 {
			interarrivals = append(interarrivals, r.Entry.Seconds()-lastEntry)
		}
		lastEntry = r.Entry.Seconds()
		window = append(window, feat)
		if len(window) > cfg.Window {
			window = window[1:]
		}
		sample := ml.Sample{Dropped: r.Dropped, ECN: r.CEOut && !r.Info.CEIn}
		if r.Dropped {
			sample.Latency = 1.0
		} else {
			sample.Latency = disc.Normalize(r.Latency())
		}
		win := make([][]float64, cfg.Window)
		pad := cfg.Window - len(window)
		for i := 0; i < pad; i++ {
			win[i] = make([]float64, width)
		}
		copy(win[pad:], window)
		sample.Window = win
		samples = append(samples, sample)
		if r.Dropped {
			ex.ObserveOutcome(hi, true)
		} else {
			ex.ObserveOutcome(r.Latency(), false)
		}
	}
	_ = infoBank
	_ = interarrivals
	return samples
}

// BenchmarkDatasetBuild measures dataset construction in the seed's
// window-of-slices layout against the columnar flat-matrix layout, on
// an identical synthetic boundary trace. Reported per sample: build
// time, heap allocations, total allocated bytes, and overhead bytes —
// allocated bytes beyond the irreducible payload (the feature row and
// targets themselves, which any layout must store). The seed layout
// already aliased window rows rather than copying them, so total bytes
// shrink ~3x; the structural overhead (per-sample window arrays,
// padding rows, growth reallocation) is what the columnar layout
// eliminates, and allocs/sample drops to ~0. A training throughput
// probe over each layout's output guards against the flat matrix
// regressing the trainers.
//
// When $BENCH_DATASET_JSON names a file (see `make bench-dataset`), the
// same numbers are written there as JSON for machine comparison.
func BenchmarkDatasetBuild(b *testing.B) {
	const nRecords = 4096
	const trainProbe = 512
	spec := core.NewFeatureSpec(cluster.DefaultConfig(2).Topo)
	dcfg := core.DefaultDatasetConfig()
	records := synthBoundaryTrace(nRecords, spec)
	width := spec.Width()
	payload := float64(8*width + 8 + 2)

	trainCfg := ml.DefaultModelConfig(width, dcfg.Window)
	trainCfg.Epochs = 1

	var order []string
	report := map[string]datasetBuildStats{}
	record := func(b *testing.B, layout string, ms0, ms1 *runtime.MemStats, trainSec float64) {
		total := nRecords * b.N
		st := datasetBuildStats{
			Layout: layout, Runs: b.N, Samples: nRecords,
			PayloadPerSample: payload,
			NsPerSample:      float64(b.Elapsed().Nanoseconds()) / float64(total),
			AllocsPerSample:  float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
			BytesPerSample:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total),
		}
		st.OverheadPerSample = st.BytesPerSample - payload
		if trainSec > 0 {
			st.TrainSamplesPerSec = float64(trainProbe) / trainSec
		}
		b.ReportMetric(st.AllocsPerSample, "allocs/sample")
		b.ReportMetric(st.BytesPerSample, "bytes/sample")
		b.ReportMetric(st.OverheadPerSample, "overhead-bytes/sample")
		if _, seen := report[layout]; !seen {
			order = append(order, layout)
		}
		report[layout] = st
	}

	b.Run("legacy", func(b *testing.B) {
		var samples []ml.Sample
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			samples = legacyBuildDataset(records, spec, dcfg)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		model, err := ml.NewModel(trainCfg)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		model.Train(samples[:trainProbe])
		record(b, "legacy", &ms0, &ms1, time.Since(t0).Seconds())
	})

	b.Run("columnar", func(b *testing.B) {
		var ds *core.Dataset
		var err error
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err = core.BuildDataset(core.Ingress, records, spec, dcfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		model, err := ml.NewModel(trainCfg)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		model.TrainSource(ds.Samples.Slice(0, trainProbe))
		record(b, "columnar", &ms0, &ms1, time.Since(t0).Seconds())
	})

	if path := os.Getenv("BENCH_DATASET_JSON"); path != "" && len(report) > 0 {
		rows := make([]datasetBuildStats, 0, len(order))
		for _, name := range order {
			rows = append(rows, report[name])
		}
		out := struct {
			Modes []datasetBuildStats `json:"modes"`
			// Headline ratios: legacy / columnar.
			AllocRatio    float64 `json:"allocs_per_sample_ratio"`
			BytesRatio    float64 `json:"alloc_bytes_per_sample_ratio"`
			OverheadRatio float64 `json:"overhead_bytes_per_sample_ratio"`
		}{Modes: rows}
		if l, c := report["legacy"], report["columnar"]; c.AllocsPerSample > 0 {
			out.AllocRatio = l.AllocsPerSample / c.AllocsPerSample
			out.BytesRatio = l.BytesPerSample / c.BytesPerSample
			if c.OverheadPerSample > 0 {
				out.OverheadRatio = l.OverheadPerSample / c.OverheadPerSample
			}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}
}

// Ablations beyond the paper (see DESIGN.md "Key design decisions").

func BenchmarkAblationA_CongestionState(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationCongestionState(8)
	})
}

func BenchmarkAblationB_Feeders(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationFeeders(8)
	})
}

func BenchmarkAblationC_Discretization(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationDiscretization([]int{1, 10, 100, 1000})
	})
}

func BenchmarkAblationD_QueueDisciplines(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationQueues(4)
	})
}

func BenchmarkAblationE_FeederDistribution(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationFeederDistribution(8)
	})
}

func BenchmarkAblationF_ModelClass(b *testing.B) {
	r := runner()
	emit(b, func() (*experiments.Table, error) {
		return r.AblationModelClass(8)
	})
}
