package main

import (
	"strings"
	"testing"

	"mimicnet/internal/obs"
)

// registryWithSeries registers every series the benchmark reads.
func registryWithSeries() *obs.Registry {
	r := obs.NewRegistry()
	for _, n := range []string{seriesSimEvents, seriesSimBarriers, seriesSimClamps, seriesInferFlushes,
		seriesInferSteps, seriesPoolSubmits, seriesPoolDispatches, seriesTrainBatches, seriesTrainSamples,
		seriesCkptWrites, seriesJournalAppends} {
		r.Counter(n, "")
	}
	for _, n := range []string{seriesBarrierWait, seriesBatchSize, seriesCkptWrite, seriesJournalFsync} {
		r.Histogram(n, "", obs.ExpBuckets(1, 2, 4))
	}
	return r
}

func TestCounterDeltas(t *testing.T) {
	r := registryWithSeries()
	src, err := newCounterSource(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Counter(seriesSimEvents, "").Add(100)
	r.Histogram(seriesBatchSize, "", nil).Observe(3)
	before := src.Read()

	r.Counter(seriesSimEvents, "").Add(42)
	r.Counter(seriesInferFlushes, "").Add(2)
	r.Counter(seriesInferSteps, "").Add(9)
	r.Histogram(seriesBatchSize, "", nil).Observe(4)
	r.Histogram(seriesBatchSize, "", nil).Observe(5)
	r.Histogram(seriesJournalFsync, "", nil).Observe(0.25)
	r.Counter(seriesJournalAppends, "").Inc()
	d := src.Read().Sub(before)

	if d.SimEvents != 42 || d.InferFlushes != 2 || d.InferSteps != 9 || d.JournalAppends != 1 {
		t.Errorf("counter deltas = %+v", d)
	}
	if d.BatchCalls != 2 || d.BatchLanes != 9 || ratio(d.BatchLanes, float64(d.BatchCalls)) != 4.5 {
		t.Errorf("batch histogram delta: calls %d lanes %g", d.BatchCalls, d.BatchLanes)
	}
	if d.FsyncS != 0.25 || d.CkptWrites != 0 || d.SimBarriers != 0 {
		t.Errorf("untouched or histogram-sum deltas wrong: %+v", d)
	}
}

func TestCounterSourceRejectsMissingSeries(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(seriesSimEvents, "")
	_, err := newCounterSource(r)
	if err == nil || !strings.Contains(err.Error(), seriesInferSteps) {
		t.Fatalf("want an error naming the missing series, got %v", err)
	}
}

// The program registers every series at package init, so the default
// registry must satisfy the benchmark as built.
func TestDefaultRegistryExportsEverySeries(t *testing.T) {
	if _, err := newCounterSource(obs.Default()); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}
