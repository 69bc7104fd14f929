package main

import (
	"fmt"
	"runtime/metrics"

	"mimicnet/internal/obs"
)

// Layer counters are read from outside the program: deltas of the
// obs.Default() series the layers already export, taken around calls
// into their public functions. Nothing here changes what the program
// does or counts.

// Counters is one reading of the process-wide layer counters. Histogram
// fields hold the running sum (and, where a mean is needed, the count)
// of observations.
type Counters struct {
	SimEvents      uint64
	SimBarriers    uint64
	SimClamps      uint64
	BarrierWaitS   float64
	InferFlushes   uint64
	InferSteps     uint64
	BatchLanes     float64 // sum of lanes over fused inference steps
	BatchCalls     uint64  // fused inference steps observed
	PoolSubmits    uint64
	PoolDispatches uint64
	TrainBatches   uint64
	TrainSamples   uint64
	CkptWrites     uint64
	CkptWriteS     float64
	JournalAppends uint64
	FsyncS         float64
	AllocBytes     uint64
	GCCycles       uint64
}

// Sub returns c - base, field by field.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		SimEvents:      c.SimEvents - base.SimEvents,
		SimBarriers:    c.SimBarriers - base.SimBarriers,
		SimClamps:      c.SimClamps - base.SimClamps,
		BarrierWaitS:   c.BarrierWaitS - base.BarrierWaitS,
		InferFlushes:   c.InferFlushes - base.InferFlushes,
		InferSteps:     c.InferSteps - base.InferSteps,
		BatchLanes:     c.BatchLanes - base.BatchLanes,
		BatchCalls:     c.BatchCalls - base.BatchCalls,
		PoolSubmits:    c.PoolSubmits - base.PoolSubmits,
		PoolDispatches: c.PoolDispatches - base.PoolDispatches,
		TrainBatches:   c.TrainBatches - base.TrainBatches,
		TrainSamples:   c.TrainSamples - base.TrainSamples,
		CkptWrites:     c.CkptWrites - base.CkptWrites,
		CkptWriteS:     c.CkptWriteS - base.CkptWriteS,
		JournalAppends: c.JournalAppends - base.JournalAppends,
		FsyncS:         c.FsyncS - base.FsyncS,
		AllocBytes:     c.AllocBytes - base.AllocBytes,
		GCCycles:       c.GCCycles - base.GCCycles,
	}
}

// counterSource resolves the exported series once. Looking a series up
// by name would silently create an empty one if the program renamed it,
// so every name must already be registered.
type counterSource struct {
	simEvents, simBarriers, simClamps *obs.Counter
	barrierWait                       *obs.Histogram
	inferFlushes, inferSteps          *obs.Counter
	batchSize                         *obs.Histogram
	poolSubmits, poolDispatches       *obs.Counter
	trainBatches, trainSamples        *obs.Counter
	ckptWrites, journalAppends        *obs.Counter
	ckptWrite, journalFsync           *obs.Histogram
	runtimeSamples                    []metrics.Sample
}

// Series names read by the benchmark, as exported on /metrics.
const (
	seriesSimEvents      = "mimicnet_sim_events_total"
	seriesSimBarriers    = "mimicnet_sim_barriers_total"
	seriesSimClamps      = "mimicnet_sim_causality_clamps_total"
	seriesBarrierWait    = "mimicnet_sim_barrier_wait_seconds"
	seriesInferFlushes   = "mimicnet_core_inference_flushes_total"
	seriesInferSteps     = "mimicnet_core_inference_steps_total"
	seriesBatchSize      = "mimicnet_ml_batch_size"
	seriesPoolSubmits    = "mimicnet_ml_pool_submits_total"
	seriesPoolDispatches = "mimicnet_ml_pool_dispatches_total"
	seriesTrainBatches   = "mimicnet_ml_train_batches_total"
	seriesTrainSamples   = "mimicnet_ml_train_samples_total"
	seriesCkptWrites     = "mimicnet_durable_ckpt_writes_total"
	seriesCkptWrite      = "mimicnet_durable_ckpt_write_seconds"
	seriesJournalAppends = "mimicnet_durable_journal_appends_total"
	seriesJournalFsync   = "mimicnet_durable_journal_fsync_seconds"

	seriesDatasetHits   = `mimicnet_serve_dataset_cache_total{result="hit"}`
	seriesDatasetMisses = `mimicnet_serve_dataset_cache_total{result="miss"}`
)

// Go runtime metrics read around each phase call.
const (
	runtimeAllocBytes = "/gc/heap/allocs:bytes"
	runtimeGCCycles   = "/gc/cycles/total:gc-cycles"
)

func newCounterSource(r *obs.Registry) (*counterSource, error) {
	have := map[string]bool{}
	for _, n := range r.SeriesNames() {
		have[n] = true
	}
	var missing []string
	counter := func(name string) *obs.Counter {
		if !have[name] {
			missing = append(missing, name)
			return nil
		}
		return r.Counter(name, "")
	}
	hist := func(name string) *obs.Histogram {
		if !have[name] {
			missing = append(missing, name)
			return nil
		}
		return r.Histogram(name, "", nil)
	}
	src := &counterSource{
		simEvents:      counter(seriesSimEvents),
		simBarriers:    counter(seriesSimBarriers),
		simClamps:      counter(seriesSimClamps),
		barrierWait:    hist(seriesBarrierWait),
		inferFlushes:   counter(seriesInferFlushes),
		inferSteps:     counter(seriesInferSteps),
		batchSize:      hist(seriesBatchSize),
		poolSubmits:    counter(seriesPoolSubmits),
		poolDispatches: counter(seriesPoolDispatches),
		trainBatches:   counter(seriesTrainBatches),
		trainSamples:   counter(seriesTrainSamples),
		ckptWrites:     counter(seriesCkptWrites),
		ckptWrite:      hist(seriesCkptWrite),
		journalAppends: counter(seriesJournalAppends),
		journalFsync:   hist(seriesJournalFsync),
		runtimeSamples: []metrics.Sample{{Name: runtimeAllocBytes}, {Name: runtimeGCCycles}},
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("layer series not exported by the program: %v", missing)
	}
	return src, nil
}

// Read takes one reading of every counter.
func (s *counterSource) Read() Counters {
	metrics.Read(s.runtimeSamples)
	return Counters{
		SimEvents:      s.simEvents.Value(),
		SimBarriers:    s.simBarriers.Value(),
		SimClamps:      s.simClamps.Value(),
		BarrierWaitS:   s.barrierWait.Sum(),
		InferFlushes:   s.inferFlushes.Value(),
		InferSteps:     s.inferSteps.Value(),
		BatchLanes:     s.batchSize.Sum(),
		BatchCalls:     s.batchSize.Count(),
		PoolSubmits:    s.poolSubmits.Value(),
		PoolDispatches: s.poolDispatches.Value(),
		TrainBatches:   s.trainBatches.Value(),
		TrainSamples:   s.trainSamples.Value(),
		CkptWrites:     s.ckptWrites.Value(),
		CkptWriteS:     s.ckptWrite.Sum(),
		JournalAppends: s.journalAppends.Value(),
		FsyncS:         s.journalFsync.Sum(),
		AllocBytes:     runtimeUint(s.runtimeSamples[0]),
		GCCycles:       runtimeUint(s.runtimeSamples[1]),
	}
}

func runtimeUint(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
