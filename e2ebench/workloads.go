package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/metrics"
	"mimicnet/internal/obs"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
)

// Workload is one closed loop: one client, one operation outstanding.
// Set-up runs Setups times and is timed each time; Unit is one fixed
// unit of work, timed untraced; Traced is the same unit with spans,
// layer counters and the phase split.
type Workload struct {
	Name   string
	Setups int
	Setup  func(b *Bench, k int) error
	Unit   func(b *Bench, i int)
	Traced func(b *Bench, i int)
}

var workloads = []*Workload{
	{Name: "cold_estimate", Setups: 3, Setup: coldSetup, Unit: coldUnit, Traced: coldTraced},
	{Name: "warm_sweep", Setups: artifacts, Setup: artifactSetup, Unit: warmUnit, Traced: warmTraced},
	{Name: "validate", Setups: artifacts, Setup: artifactSetup, Unit: validateUnit, Traced: validateTraced},
}

// artifacts is how many trained models warm_sweep and validate build in
// set-up; units cycle through them. Compose cost depends mostly on the
// trained model: one model composed over six traffic seeds varied by
// under 15%, eight models over one traffic seed by 3×. So a run has to
// average over about as many models as it completes units, and a unit
// uses the same model again (and checks the repeat) only after all of
// them.
const artifacts = 24

// sweepSizes are the composition sizes warm_sweep submits.
var sweepSizes = []int{8, 16, 32}

// validateSize is the N at which validate compares against ground truth.
const validateSize = 16

// Seed streams: measured cold jobs and set-up artifacts draw from
// stream 0, the cold workload's warm-up jobs from stream 1, so a cold
// job and a set-up model of one --seed see the same traffic.
func (b *Bench) jobSeed(stream, i int) int64 {
	return b.Seed*10007 + int64(stream)*1000 + int64(i) + 1
}

// cliSpec is the JobSpec `mimicnet` and `mimicnetd` use by default, at
// the given seed and composition size.
func cliSpec(seed int64, clusters int) serve.JobSpec {
	return serve.JobSpec{Seed: seed, Clusters: clusters}.Normalized()
}

func runTime(s serve.JobSpec) sim.Time      { return sim.FromSeconds(s.RunMs / 1e3) }
func smallRunTime(s serve.JobSpec) sim.Time { return sim.FromSeconds(s.SmallRunMs / 1e3) }

// Stack is the serve stack exactly as `mimicnetd -data-dir` assembles
// it: registry under registry/, journal, checkpoints and dataset cache
// beside it, default queue, GOMAXPROCS workers.
type Stack struct {
	reg   *serve.Registry
	sched *serve.Scheduler
	obs   *obs.Registry // the instance's own series (dataset cache)
}

func openStack(dir string) (*Stack, error) {
	reg, err := serve.NewRegistry(filepath.Join(dir, "registry"), 8)
	if err != nil {
		return nil, err
	}
	sched, _, err := serve.NewSchedulerWithOptions(reg, serve.SchedulerOptions{
		QueueDepth:    64,
		JournalDir:    filepath.Join(dir, "journal"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		DatasetDir:    filepath.Join(dir, "datasets"),
	})
	if err != nil {
		return nil, err
	}
	r := obs.NewRegistry()
	sched.ExposeTo(r)
	reg.ExposeTo(r)
	return &Stack{reg: reg, sched: sched, obs: r}, nil
}

// Close drains the workers (they have exited when it returns) and
// compacts the journal.
func (s *Stack) Close() error {
	if err := s.sched.Drain(context.Background()); err != nil {
		return err
	}
	return s.sched.Close()
}

// JobOut is one scheduler job seen from the client.
type JobOut struct {
	Wall   time.Duration // Submit to terminal state
	Status serve.JobStatus
}

// submit runs one job to its terminal state and checks its output.
func submit(st *Stack, spec serve.JobSpec) (JobOut, error) {
	t0 := time.Now()
	j, err := st.sched.Submit(spec)
	if err != nil {
		return JobOut{}, fmt.Errorf("submit rejected: %w", err)
	}
	<-j.Done()
	out := JobOut{Wall: time.Since(t0), Status: j.Status()}
	return out, checkJob(out.Status)
}

// checkJob is the output check for a job: done, not cancelled, and with
// completed flows.
func checkJob(st serve.JobStatus) error {
	switch {
	case st.State != serve.StateDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil:
		return fmt.Errorf("job %s has no summary", st.ID)
	case st.Result.Cancelled:
		return fmt.Errorf("job %s was cancelled", st.ID)
	case st.Result.FlowsCompleted <= 0:
		return fmt.Errorf("job %s completed no flows", st.ID)
	}
	return nil
}

// opKey names an operation on a spec's inputs for the output check: the
// seed, the training settings the workloads vary, and the size N.
func opKey(op string, s serve.JobSpec, n int) string {
	return fmt.Sprintf("%s seed=%d small_run=%gms epochs=%d n=%d", op, s.Seed, s.SmallRunMs, s.Epochs, n)
}

// recordJob adds a job to the output check.
func (b *Bench) recordJob(spec serve.JobSpec, out JobOut, err error) {
	hash := ""
	if err == nil {
		hash = hashSummary(*out.Status.Result)
	}
	b.Check.Record(opKey("estimate", spec, spec.Clusters), hash, err)
}

// queueWait is the time a job spent admitted but not yet running.
func queueWait(st serve.JobStatus) float64 {
	if st.Started == nil {
		return 0
	}
	return st.Started.Sub(st.Submitted).Seconds()
}

// serveOverhead is a job's wall time outside training and compose.
func serveOverhead(out JobOut) float64 {
	r := out.Status.Result
	return out.Wall.Seconds() - (r.TrainMs+r.ComposeMs)/1e3
}

// ---- cold_estimate ------------------------------------------------------

// coldJob runs one CLI-default job on a fresh, empty stack.
func (b *Bench) coldJob(seed int64) (JobOut, *Stack, error) {
	st, err := openStack(b.freshDir())
	if err != nil {
		return JobOut{}, nil, err
	}
	out, err := submit(st, cliSpec(seed, 0))
	if cerr := st.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing stack: %w", cerr)
	}
	return out, st, err
}

// coldSetup is one warm-up cold job: it starts the worker pools and
// grows the heap the way the measured jobs will find them.
func coldSetup(b *Bench, k int) error {
	seed := b.jobSeed(1, k)
	out, _, err := b.coldJob(seed)
	b.recordJob(cliSpec(seed, 0), out, err)
	return err
}

func coldUnit(b *Bench, i int) {
	seed := b.jobSeed(0, i)
	out, _, err := b.coldJob(seed)
	b.recordJob(cliSpec(seed, 0), out, err)
	if err == nil {
		b.Time("estimate_s", out.Wall)
	}
}

// coldTraced runs the job through the scheduler (serve and durable
// counters, and the untraced baseline for the tracing overhead), then
// calls each phase of the same cold job directly under spans.
func coldTraced(b *Bench, i int) {
	seed := b.jobSeed(0, i)
	spec := cliSpec(seed, 0)
	job := b.Rec.Job(fmt.Sprintf("cold_estimate seed=%d", seed))
	defer b.Rec.End(job)

	var out JobOut
	var st *Stack
	var err error
	c0 := b.Src.Read()
	b.Call(job, "phase", "serve.Scheduler job", func() { out, st, err = b.coldJob(seed) })
	d := b.Src.Read().Sub(c0)
	b.recordJob(spec, out, err)
	if err != nil {
		return
	}
	b.Count(i, "durable.ckpt_writes", float64(d.CkptWrites))
	b.Count(i, "durable.journal_appends", float64(d.JournalAppends))
	b.Add("durable.ckpt_write_s", d.CkptWriteS)
	b.Add("durable.fsync_s", d.FsyncS)
	b.Add("serve.overhead_s", serveOverhead(out))
	b.Add("serve.queue_wait_s", queueWait(out.Status))
	b.Count(i, "serve.dataset_cache_hits", float64(st.obs.Counter(seriesDatasetHits, "").Value()))
	b.Count(i, "serve.dataset_cache_misses", float64(st.obs.Counter(seriesDatasetMisses, "").Value()))

	res, phases, err := b.coldPhases(i, job, spec)
	if err == nil && (res.Events != out.Status.Result.Events) {
		err = fmt.Errorf("direct phase calls diverge from the scheduler job: %d vs %d events", res.Events, out.Status.Result.Events)
	}
	b.Check.Record(opKey("compose", spec, spec.Clusters), hashIf(res, err), err)
	if err == nil {
		b.Add("trace.overhead_s", phases.Seconds()-out.Wall.Seconds())
	}
}

func hashIf(r cluster.Results, err error) string {
	if err != nil {
		return ""
	}
	return hashResults(r)
}

// coldPhases is the cold job's pipeline called one phase at a time:
// small-scale run under core.NewTracer, core.BuildDataset per direction,
// core.TrainModelsCkpt, core.Compose and Engine.RunContext. It returns
// the estimate and the summed phase time.
func (b *Bench) coldPhases(i, job int, spec serve.JobSpec) (cluster.Results, time.Duration, error) {
	ctx := context.Background()
	base, tcfg, err := spec.Configs()
	if err != nil {
		return cluster.Results{}, 0, err
	}
	var total time.Duration

	small := base
	small.Topo = base.Topo.WithClusters(2)
	small.Observable = 0
	var inst *cluster.Simulation
	var tracer *core.Tracer
	ph := b.Rec.Begin(job, "phase", "datagen")
	total += b.Call(ph, "layer", "cluster.New", func() {
		if inst, err = cluster.New(small); err == nil {
			tracer = core.NewTracer(inst.Topo, 1)
			tracer.Attach(inst)
		}
	})
	if err != nil {
		return cluster.Results{}, 0, err
	}
	run := b.Call(ph, "layer", "cluster.Simulation.RunContext", func() { inst.RunContext(ctx, smallRunTime(spec)) })
	b.Rec.End(ph)
	total += run
	b.Add("cluster.smallscale_s", run.Seconds())
	b.Count(i, "cluster.smallscale_events", float64(inst.Results().Events))

	fspec := core.NewFeatureSpec(small.Topo)
	fspec.SkipCongestion = tcfg.SkipCongestionFeature
	ingRecs, egRecs := tracer.ByDirection()
	var ing, eg *core.Dataset
	ph = b.Rec.Begin(job, "phase", "dataset")
	build := b.Call(ph, "layer", "core.BuildDataset ingress", func() { ing, err = core.BuildDataset(core.Ingress, ingRecs, fspec, tcfg.Dataset) })
	if err == nil {
		build += b.Call(ph, "layer", "core.BuildDataset egress", func() { eg, err = core.BuildDataset(core.Egress, egRecs, fspec, tcfg.Dataset) })
	}
	b.Rec.End(ph)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	total += build
	b.Add("core.dataset_build_s", build.Seconds())
	b.Count(i, "core.dataset_samples", float64(ing.Len()+eg.Len()))

	key, err := spec.ModelKey()
	if err != nil {
		return cluster.Results{}, 0, err
	}
	ckpt := &core.TrainCheckpointer{Dir: filepath.Join(b.freshDir(), "ckpt"), Key: key}
	var models *core.MimicModels
	ph = b.Rec.Begin(job, "phase", "train")
	c0 := b.Src.Read()
	train := b.Call(ph, "layer", "core.TrainModelsCkpt", func() { models, _, _, err = core.TrainModelsCkpt(ctx, ing, eg, tcfg, nil, ckpt) })
	d := b.Src.Read().Sub(c0)
	b.Rec.End(ph)
	ckpt.Clear()
	if err != nil {
		return cluster.Results{}, 0, err
	}
	total += train
	b.Add("core.train_s", train.Seconds())
	b.Add("ml.train_samples_per_s", ratio(float64(d.TrainSamples), train.Seconds()))
	b.Count(i, "ml.train_batches", float64(d.TrainBatches))

	cfg := base
	cfg.Topo = base.Topo.WithClusters(spec.Clusters)
	ph = b.Rec.Begin(job, "phase", "compose")
	res, cs, err := b.compose(ph, cfg, models, runTime(spec))
	b.Rec.End(ph)
	if err != nil {
		return cluster.Results{}, 0, err
	}
	total += cs.Build + cs.Run
	b.addCompose(i, []ComposeStats{cs})
	return res, total, nil
}

// ---- shared set-up: trained artifacts --------------------------------

// Artifact is one trained model set obtained through the scheduler.
type Artifact struct {
	Spec   serve.JobSpec
	Models *core.MimicModels
}

// artifactSpec is the spec of a set-up model: the CLI defaults with a
// 100 ms data-generation run and one training epoch, which train in
// about an eighth of the default time, so that a run can average over
// many models (see artifacts).
func artifactSpec(seed int64) serve.JobSpec {
	return serve.JobSpec{Seed: seed, Clusters: 2, SmallRunMs: 100, Epochs: 1}.Normalized()
}

// artifactSetup trains the k-th artifact with a cold job on the shared
// stack (composed at the minimum N), then reads the models back from
// the registry.
func artifactSetup(b *Bench, k int) error {
	if b.Stack == nil {
		st, err := openStack(b.freshDir())
		if err != nil {
			return err
		}
		b.Stack = st
	}
	seed := b.jobSeed(0, k)
	spec := artifactSpec(seed)
	out, err := submit(b.Stack, spec)
	b.recordJob(spec, out, err)
	if err != nil {
		return err
	}
	key, err := spec.ModelKey()
	if err != nil {
		return err
	}
	models, hit, err := b.Stack.reg.Get(context.Background(), key, func() (*core.MimicModels, error) {
		return nil, errors.New("trained artifact missing from the registry")
	})
	if err != nil {
		return err
	}
	if !hit {
		return errors.New("trained artifact was not a registry hit")
	}
	b.Artifacts = append(b.Artifacts, Artifact{Spec: spec, Models: models})
	return nil
}

// ---- warm_sweep -----------------------------------------------------------

// warmJob submits the artifact's spec at size n; it must be a registry
// hit.
func (b *Bench) warmJob(a Artifact, n int) JobOut {
	spec := a.Spec
	spec.Clusters = n
	out, err := submit(b.Stack, spec)
	if err == nil && !out.Status.Result.CacheHit {
		err = fmt.Errorf("job %s trained instead of hitting the registry", out.Status.ID)
	}
	b.recordJob(spec, out, err)
	return out
}

func warmUnit(b *Bench, i int) {
	a := b.Artifacts[i%len(b.Artifacts)]
	for _, n := range sweepSizes {
		if out := b.warmJob(a, n); out.Status.Result != nil {
			b.Time("estimate_s", out.Wall)
		}
	}
}

func warmTraced(b *Bench, i int) {
	a := b.Artifacts[i%len(b.Artifacts)]
	job := b.Rec.Job(fmt.Sprintf("warm_sweep seed=%d", a.Spec.Seed))
	defer b.Rec.End(job)
	base, _, err := a.Spec.Configs()
	if err != nil {
		b.Check.Record(opKey("sweep", a.Spec, 0), "", err)
		return
	}
	var jobs, phases time.Duration
	var hits, lookups uint64
	var stats []ComposeStats
	for _, n := range sweepSizes {
		r0 := b.Stack.reg.Stats()
		var out JobOut
		b.Call(job, "phase", fmt.Sprintf("serve.Scheduler job n=%d", n), func() { out = b.warmJob(a, n) })
		r1 := b.Stack.reg.Stats()
		hits += r1.Hits() - r0.Hits()
		lookups += r1.Hits() - r0.Hits() + r1.Misses - r0.Misses
		if out.Status.Result == nil {
			return
		}
		jobs += out.Wall
		b.Add("serve.overhead_s", serveOverhead(out))
		b.Add("serve.queue_wait_s", queueWait(out.Status))

		cfg := base
		cfg.Topo = base.Topo.WithClusters(n)
		ph := b.Rec.Begin(job, "phase", fmt.Sprintf("compose n=%d", n))
		res, cs, err := b.compose(ph, cfg, a.Models, runTime(a.Spec))
		b.Rec.End(ph)
		if err == nil && res.Events != out.Status.Result.Events {
			err = fmt.Errorf("direct compose diverges from the scheduler job: %d vs %d events", res.Events, out.Status.Result.Events)
		}
		b.Check.Record(opKey("compose", a.Spec, n), hashIf(res, err), err)
		if err != nil {
			return
		}
		phases += cs.Build + cs.Run
		stats = append(stats, cs)
	}
	b.Add("serve.registry_hit_ratio", ratio(float64(hits), float64(lookups)))
	b.Add("trace.overhead_s", phases.Seconds()-jobs.Seconds())
	b.addCompose(i, stats)
}

// ---- validate -------------------------------------------------------------

// Validation is one accuracy check of an artifact at validateSize.
type Validation struct {
	Full, Est                 cluster.Results
	FullS, EstS, RoleS        time.Duration
	W1FCT, W1RTT, W1Tput      float64
	DirW1Ingress, DirW1Egress float64
	Compose                   ComposeStats
	UnitSimEvents             uint64 // kernel events of the whole validation
}

// validate runs ground truth (full-fidelity cluster.Simulation), the
// MimicNet estimate (core.Compose) and per-direction model error
// (core.RoleError) at the same N and seed, and the W1 distances between
// them.
func (b *Bench) validate(i, job int, a Artifact) (Validation, error) {
	var v Validation
	base, _, err := a.Spec.Configs()
	if err != nil {
		return v, err
	}
	cfg := base
	cfg.Topo = base.Topo.WithClusters(validateSize)
	until := runTime(a.Spec)
	c0 := b.Src.Read()

	var inst *cluster.Simulation
	ph := b.Rec.Begin(job, "phase", "ground truth")
	b.Call(ph, "layer", "cluster.New", func() { inst, err = cluster.New(cfg) })
	if err == nil {
		v.FullS = b.Call(ph, "layer", "cluster.Simulation.Run", func() { inst.Run(until) })
		v.Full = inst.Results()
		if inst.FlowsCompleted <= 0 {
			err = errors.New("ground truth completed no flows")
		}
	}
	b.Rec.End(ph)
	if err != nil {
		return v, err
	}

	ph = b.Rec.Begin(job, "phase", "estimate")
	v.Est, v.Compose, err = b.compose(ph, cfg, a.Models, until)
	b.Rec.End(ph)
	if err != nil {
		return v, err
	}
	v.EstS = v.Compose.Build + v.Compose.Run

	ph = b.Rec.Begin(job, "phase", "role error")
	v.RoleS = b.Call(ph, "layer", "core.RoleError", func() {
		v.DirW1Ingress, v.DirW1Egress, err = core.RoleError(base, a.Models, until)
	})
	b.Rec.End(ph)
	if err != nil {
		return v, err
	}
	v.W1FCT = metrics.W1(v.Est.FCTs, v.Full.FCTs)
	v.W1RTT = metrics.W1(v.Est.RTTs, v.Full.RTTs)
	v.W1Tput = metrics.W1(v.Est.Throughputs, v.Full.Throughputs)
	for _, w := range []float64{v.W1FCT, v.W1RTT, v.W1Tput, v.DirW1Ingress, v.DirW1Egress} {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return v, fmt.Errorf("W1 distance %v is not a finite non-negative number", w)
		}
	}
	v.UnitSimEvents = b.Src.Read().Sub(c0).SimEvents
	return v, nil
}

// recordValidation adds the three runs of a validation to the output
// check.
func (b *Bench) recordValidation(a Artifact, v Validation, err error) {
	if err != nil {
		b.Check.Record(opKey("validate", a.Spec, validateSize), "", err)
		return
	}
	b.Check.Record(opKey("full", a.Spec, validateSize), hashResults(v.Full), nil)
	b.Check.Record(opKey("compose", a.Spec, validateSize), hashResults(v.Est), nil)
	b.Check.Record(opKey("validate", a.Spec, validateSize),
		hashFloats(v.W1FCT, v.W1RTT, v.W1Tput, v.DirW1Ingress, v.DirW1Egress), nil)
}

func validateUnit(b *Bench, i int) {
	a := b.Artifacts[i%len(b.Artifacts)]
	v, err := b.validate(i, -1, a)
	b.recordValidation(a, v, err)
	if err == nil {
		b.Time("estimate_s", v.EstS)
	}
}

func validateTraced(b *Bench, i int) {
	a := b.Artifacts[i%len(b.Artifacts)]
	base, _, err := a.Spec.Configs()
	if err != nil {
		b.Check.Record(opKey("validate", a.Spec, validateSize), "", err)
		return
	}
	// Untraced twin of the estimate, for the tracing overhead.
	cfg := base
	cfg.Topo = base.Topo.WithClusters(validateSize)
	t0 := time.Now()
	comp, err := core.Compose(cfg, a.Models)
	var twin cluster.Results
	if err == nil {
		comp.Run(runTime(a.Spec))
		twin = comp.Results()
	}
	untraced := time.Since(t0)
	b.Check.Record(opKey("compose", a.Spec, validateSize), hashIf(twin, err), err)

	job := b.Rec.Job(fmt.Sprintf("validate seed=%d", a.Spec.Seed))
	v, err := b.validate(i, job, a)
	b.Rec.End(job)
	b.recordValidation(a, v, err)
	if err != nil {
		return
	}
	b.Add("cluster.full_s", v.FullS.Seconds())
	b.Count(i, "cluster.full_events", float64(v.Full.Events))
	b.Count(i, "sim.events", float64(v.UnitSimEvents))
	b.Add("core.validate_s", v.RoleS.Seconds())
	b.Count(i, "core.dir_w1_ingress", v.DirW1Ingress)
	b.Count(i, "core.dir_w1_egress", v.DirW1Egress)
	b.Count(i, "w1_fct_s", v.W1FCT)
	b.Count(i, "w1_rtt_s", v.W1RTT)
	b.Count(i, "w1_tput_Bps", v.W1Tput)
	b.Add("trace.overhead_s", v.EstS.Seconds()-untraced.Seconds())
	b.addCompose(i, []ComposeStats{v.Compose})
}

// ---- compose, shared by all three ----------------------------------------

// ComposeStats is one composed run seen through its public accessors and
// the layer counters.
type ComposeStats struct {
	N             int
	Until         sim.Time
	Build, Run    time.Duration
	Events        uint64
	Steps, Feeder uint64
	ModelPackets  uint64
	Layers        Counters
}

// compose builds and runs the MimicNet estimate at cfg's N.
func (b *Bench) compose(parent int, cfg cluster.Config, models *core.MimicModels, until sim.Time) (cluster.Results, ComposeStats, error) {
	cs := ComposeStats{N: cfg.Topo.Clusters, Until: until}
	var comp *core.Engine
	var err error
	cs.Build = b.Call(parent, "layer", "core.Compose", func() { comp, err = core.Compose(cfg, models) })
	if err != nil {
		return cluster.Results{}, cs, err
	}
	c0 := b.Src.Read()
	var cancelled bool
	cs.Run = b.Call(parent, "layer", "core.Engine.RunContext", func() { cancelled = comp.RunContext(context.Background(), until) })
	cs.Layers = b.Src.Read().Sub(c0)
	res := comp.Results()
	switch {
	case cancelled || res.Cancelled:
		return res, cs, errors.New("composed run was cancelled")
	case comp.FlowsCompleted() <= 0:
		return res, cs, errors.New("composed run completed no flows")
	}
	cs.Events = res.Events
	cs.Steps = comp.InferenceSteps()
	cs.Feeder = comp.FeederEvents()
	cs.ModelPackets = comp.ModelPackets()
	return res, cs, nil
}

// addCompose records the compose-layer metrics of one unit's composed
// runs: times per N and in total, counts summed over the runs.
func (b *Bench) addCompose(i int, runs []ComposeStats) {
	var build, run time.Duration
	var simulated float64
	var events, steps, feeder, packets uint64
	var flushes, lanes, calls, submits, dispatches, barriers, clamps float64
	var wait float64
	for _, cs := range runs {
		build += cs.Build
		run += cs.Run
		simulated += cs.Until.Seconds()
		events += cs.Events
		steps += cs.Steps
		feeder += cs.Feeder
		packets += cs.ModelPackets
		l := cs.Layers
		flushes += float64(l.InferFlushes)
		lanes += l.BatchLanes
		calls += float64(l.BatchCalls)
		submits += float64(l.PoolSubmits)
		dispatches += float64(l.PoolDispatches)
		barriers += float64(l.SimBarriers)
		clamps += float64(l.SimClamps)
		wait += l.BarrierWaitS
		b.Add(fmt.Sprintf("core.compose_run_s.n%d", cs.N), cs.Run.Seconds())
	}
	b.Add("core.compose_build_s", build.Seconds())
	b.Add("core.simsec_per_s", ratio(simulated, run.Seconds()))
	b.Add("sim.barrier_wait_s", wait)
	b.Count(i, "core.compose_events", float64(events))
	b.Count(i, "core.inference_steps", float64(steps))
	b.Count(i, "core.inference_flushes", flushes)
	b.Count(i, "core.steps_per_flush", ratio(float64(steps), flushes))
	b.Count(i, "core.feeder_events", float64(feeder))
	b.Count(i, "core.model_packets", float64(packets))
	b.Count(i, "ml.batch_lanes_mean", ratio(lanes, calls))
	b.Count(i, "ml.pool_submits", submits)
	b.Count(i, "ml.pool_dispatches", dispatches)
	b.Count(i, "sim.barriers", barriers)
	b.Count(i, "sim.causality_clamps", clamps)
}
