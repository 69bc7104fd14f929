package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimicnet/internal/core"
	"mimicnet/internal/ml"
)

// fakeModels builds a minimal-but-valid artifact: both directions hold
// a tiny untrained ml.Model, cheap enough to stamp per test.
func fakeModels(window int) *core.MimicModels {
	dir := func() *core.DirectionModel {
		cfg := ml.DefaultModelConfig(2, window)
		cfg.Hidden = 2
		m, err := ml.NewModel(cfg)
		if err != nil {
			panic(err)
		}
		return &core.DirectionModel{Model: m}
	}
	return &core.MimicModels{Window: window, Ingress: dir(), Egress: dir()}
}

func newTestRegistry(t *testing.T, memCap int) *Registry {
	t.Helper()
	r, err := NewRegistry(t.TempDir(), memCap)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRegistrySingleflight is the satellite's core claim: N concurrent
// identical submissions train exactly once, and every caller gets the
// same artifact.
func TestRegistrySingleflight(t *testing.T) {
	r := newTestRegistry(t, 4)
	var trainings atomic.Int32
	train := func() (*core.MimicModels, error) {
		trainings.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the flight open
		return fakeModels(7), nil
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*core.MimicModels, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = r.Get(context.Background(), "key-a", train)
		}()
	}
	wg.Wait()

	if n := trainings.Load(); n != 1 {
		t.Fatalf("%d concurrent identical requests trained %d times, want 1", callers, n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
	st := r.Stats()
	if st.Misses != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, callers-1)
	}

	// A later request is a pure memory hit.
	if _, hit, err := r.Get(context.Background(), "key-a", train); err != nil || !hit {
		t.Fatalf("resubmission: hit=%v err=%v, want memory hit", hit, err)
	}
	if trainings.Load() != 1 {
		t.Fatal("resubmission retrained")
	}
}

// TestRegistryKeySeedSensitivity: differing seeds must produce different
// content addresses (and everything else equal, the same address).
func TestRegistryKeySeedSensitivity(t *testing.T) {
	spec := JobSpec{Clusters: 8}.Normalized()
	k1, err := spec.ModelKey()
	if err != nil {
		t.Fatal(err)
	}
	same := spec
	same.Clusters = 128 // composition size must not affect the artifact key
	k2, err := same.ModelKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("cluster count changed the model key")
	}
	seeded := spec
	seeded.Seed = spec.Seed + 1
	k3, err := seeded.ModelKey()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("differing seeds produced the same model key")
	}
	tuned := spec
	tuned.Tune = 4
	k4, err := tuned.ModelKey()
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("tuning budget not reflected in the model key")
	}
}

// TestRegistryCorruptBlobFallback: a damaged on-disk blob must fall back
// to retraining (counted as corrupt), not fail the job.
func TestRegistryCorruptBlobFallback(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var trainings atomic.Int32
	m, hit, err := r.Get(context.Background(), key, func() (*core.MimicModels, error) {
		trainings.Add(1)
		return fakeModels(3), nil
	})
	if err != nil {
		t.Fatalf("corrupt blob failed the request: %v", err)
	}
	if hit {
		t.Fatal("corrupt blob reported as a cache hit")
	}
	if trainings.Load() != 1 {
		t.Fatalf("trainings = %d, want 1 (fallback retrain)", trainings.Load())
	}
	if m == nil || m.Window != 3 {
		t.Fatal("fallback did not return the retrained artifact")
	}
	st := r.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The rewritten blob must now round-trip from disk.
	blob, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModels(blob); err != nil {
		t.Fatalf("rewritten blob does not decode: %v", err)
	}
}

// TestRegistryEvictionDiskFallback: an artifact evicted from the LRU is
// reloaded from disk, not retrained.
func TestRegistryEvictionDiskFallback(t *testing.T) {
	r := newTestRegistry(t, 1)
	var trainings atomic.Int32
	train := func(w int) func() (*core.MimicModels, error) {
		return func() (*core.MimicModels, error) {
			trainings.Add(1)
			return fakeModels(w), nil
		}
	}
	if _, _, err := r.Get(context.Background(), "k1", train(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(context.Background(), "k2", train(2)); err != nil {
		t.Fatal(err) // evicts k1 from memory
	}
	if st := r.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 eviction and 1 resident entry", st)
	}
	m, hit, err := r.Get(context.Background(), "k1", train(1))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("evicted artifact not served from disk")
	}
	if trainings.Load() != 2 {
		t.Fatalf("trainings = %d, want 2 (no retrain after eviction)", trainings.Load())
	}
	if m.Window != 1 {
		t.Fatalf("disk reload returned wrong artifact (window %d)", m.Window)
	}
	if st := r.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestRegistryTrainErrorPropagates: a failed materialization reaches
// every coalesced caller and leaves nothing cached.
func TestRegistryTrainErrorPropagates(t *testing.T) {
	r := newTestRegistry(t, 4)
	boom := fmt.Errorf("no samples")
	if _, _, err := r.Get(context.Background(), "bad", func() (*core.MimicModels, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if r.Contains("bad") {
		t.Fatal("failed materialization was cached")
	}
}
