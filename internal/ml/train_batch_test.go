package ml

import (
	"context"
	"math"
	"testing"

	"mimicnet/internal/stats"
)

func cellConfigs() map[string]ModelConfig {
	lstm := DefaultModelConfig(3, 5)
	lstm.Hidden = 7
	lstm.Layers = 2
	gru := lstm
	gru.CellType = "gru"
	mlp := lstm
	mlp.CellType = "mlp"
	mlp.Layers = 1
	return map[string]ModelConfig{"lstm": lstm, "gru": gru, "mlp": mlp}
}

// TestBatchedGradMatchesSequential is the core correctness check of the
// minibatch trainer: for every trunk class, one fused batch of n samples
// must produce (up to float reassociation) the mean of the parameter
// gradients of n batches of one.
func TestBatchedGradMatchesSequential(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	for name, cfg := range cellConfigs() {
		t.Run(name, func(t *testing.T) {
			src := samplesOf(synthSamples(9, cfg.Features, cfg.Window, 31))
			idx := make([]int, src.Len())
			for i := range idx {
				idx[i] = i
			}

			seq, _ := NewModel(cfg)
			st := newMiniBatchTrainer(seq, pool)
			for _, i := range idx {
				st.trainBatch(src, []int{i})
			}
			// trainBatch accumulates without stepping, so seq grads now
			// hold the sum over the batches of one.
			scale := 1 / float64(len(idx))

			bat, _ := NewModel(cfg)
			newMiniBatchTrainer(bat, pool).trainBatch(src, idx)

			sp, bp := seq.Params(), bat.Params()
			for pi := range sp {
				for gi := range sp[pi].Grad {
					want := sp[pi].Grad[gi] * scale
					got := bp[pi].Grad[gi]
					if diff := math.Abs(want - got); diff > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("param %d grad %d: batch of %d %v vs mean of batches of one %v",
							pi, gi, len(idx), got, want)
					}
				}
			}
		})
	}
}

// TestBatchedTrainerDeterministic asserts the minibatch trainer's
// determinism contract: for a fixed seed and batch size, training is
// bitwise reproducible run to run and across pool worker counts.
func TestBatchedTrainerDeterministic(t *testing.T) {
	for name, cfg := range cellConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.BatchSize = 8
			cfg.Epochs = 2
			samples := synthSamples(50, cfg.Features, cfg.Window, 41)
			train := func(workers int) (*Model, TrainResult) {
				pool := NewPool(workers)
				defer pool.Close()
				m, _ := NewModel(cfg)
				res, err := m.TrainContext(context.Background(), samples, TrainOpts{Pool: pool})
				if err != nil {
					t.Fatalf("TrainContext: %v", err)
				}
				return m, res
			}
			m1, r1 := train(1)
			m2, r2 := train(1)
			m4, r4 := train(4)
			for e := range r1.EpochLoss {
				if r1.EpochLoss[e] != r2.EpochLoss[e] || r1.EpochLoss[e] != r4.EpochLoss[e] {
					t.Fatalf("epoch %d loss not reproducible: %v %v %v", e, r1.EpochLoss[e], r2.EpochLoss[e], r4.EpochLoss[e])
				}
			}
			p1, p2, p4 := m1.Params(), m2.Params(), m4.Params()
			for pi := range p1 {
				for di := range p1[pi].Data {
					if p1[pi].Data[di] != p2[pi].Data[di] {
						t.Fatalf("param %d elem %d differs across identical runs", pi, di)
					}
					if p1[pi].Data[di] != p4[pi].Data[di] {
						t.Fatalf("param %d elem %d differs across worker counts", pi, di)
					}
				}
			}
		})
	}
}

// TestBatchedSequentialParity trains the same architecture at BatchSize
// 1 and 16 and requires both to land at comparable held-out quality.
// The trajectories differ by construction (B× fewer optimizer steps on
// averaged gradients), so this is a tolerance check, not bitwise.
func TestBatchedSequentialParity(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 12
	cfg.Epochs = 8
	train := synthSamples(400, 2, 4, 11)
	held := synthSamples(120, 2, 4, 13)

	cfg.BatchSize = 1
	seq, _ := NewModel(cfg)
	seqRes := seq.Train(train)
	seqEval := seq.Evaluate(held)

	cfg.BatchSize = 16
	bat, _ := NewModel(cfg)
	batRes := bat.Train(train)
	batEval := bat.Evaluate(held)

	if last, first := seqRes.EpochLoss[cfg.Epochs-1], seqRes.EpochLoss[0]; last >= first {
		t.Errorf("sequential loss did not decrease: %v -> %v", first, last)
	}
	if last, first := batRes.EpochLoss[cfg.Epochs-1], batRes.EpochLoss[0]; last >= first {
		t.Errorf("batched loss did not decrease: %v -> %v", first, last)
	}
	if diff := math.Abs(seqEval.LatencyMAE - batEval.LatencyMAE); diff > 0.05 {
		t.Errorf("held-out LatencyMAE diverged: sequential %v vs batched %v", seqEval.LatencyMAE, batEval.LatencyMAE)
	}
	if diff := math.Abs(seqEval.DropRatePred - batEval.DropRatePred); diff > 0.1 {
		t.Errorf("held-out drop rate diverged: sequential %v vs batched %v", seqEval.DropRatePred, batEval.DropRatePred)
	}
}

// TestTrainContextCancellation covers the mid-train cancellation
// contract: prompt return at an optimizer-step boundary, no pending
// gradients left behind, and a model that keeps training cleanly
// afterwards.
func TestTrainContextCancellation(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 8
	cfg.Epochs = 6
	samples := synthSamples(200, 2, 4, 23)

	t.Run("pre-cancelled", func(t *testing.T) {
		m, _ := NewModel(cfg)
		before := snapshotParams(m)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := m.TrainContext(ctx, samples, TrainOpts{})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(res.EpochLoss) != 0 {
			t.Fatalf("pre-cancelled training reported %d epochs", len(res.EpochLoss))
		}
		for pi, p := range m.Params() {
			for di := range p.Data {
				if p.Data[di] != before[pi][di] {
					t.Fatalf("param %d changed despite pre-cancelled ctx", pi)
				}
			}
		}
	})

	t.Run("mid-train", func(t *testing.T) {
		m, _ := NewModel(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		var epochs int
		res, err := m.TrainContext(ctx, samples, TrainOpts{Progress: func(p TrainProgress) {
			epochs++
			if p.Epoch == 2 {
				cancel()
			}
		}})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(res.EpochLoss) != 2 || epochs != 2 {
			t.Fatalf("cancelled after epoch 2, got %d epoch losses / %d callbacks", len(res.EpochLoss), epochs)
		}
		// Optimizer state must be consistent: all gradients dropped, all
		// parameters finite, and continued training works from here.
		for pi, p := range m.Params() {
			for gi, g := range p.Grad {
				if g != 0 {
					t.Fatalf("param %d grad %d = %v after cancel, want 0", pi, gi, g)
				}
			}
			for _, v := range p.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("param %d not finite after cancel", pi)
				}
			}
		}
		res2, err := m.TrainContext(context.Background(), samples, TrainOpts{})
		if err != nil || len(res2.EpochLoss) != cfg.Epochs {
			t.Fatalf("training after cancel: err=%v epochs=%d", err, len(res2.EpochLoss))
		}
	})
}

// TestFineTuneContextUsesBatchedPath sanity-checks that FineTune flows
// through the shared fit loop (progress reported with the configured
// batch size) and still improves the model it starts from.
func TestFineTuneContextUsesBatchedPath(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 8
	cfg.Epochs = 3
	m, _ := NewModel(cfg)
	samples := synthSamples(150, 2, 4, 29)
	m.Train(samples)
	var got []TrainProgress
	res, err := m.FineTuneContext(context.Background(), samples, 2, 0, TrainOpts{
		Progress: func(p TrainProgress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatalf("FineTuneContext: %v", err)
	}
	if len(res.EpochLoss) != 2 || len(got) != 2 {
		t.Fatalf("epochs = %d, progress reports = %d", len(res.EpochLoss), len(got))
	}
	for i, p := range got {
		if p.Epoch != i+1 || p.Epochs != 2 || p.BatchSize != DefaultBatchSize || p.Samples != len(samples) {
			t.Fatalf("progress %d = %+v", i, p)
		}
		if p.SamplesPerSec <= 0 {
			t.Fatalf("progress %d samples/sec = %v", i, p.SamplesPerSec)
		}
	}
}

// TestRaggedWindowsRejected: samples with unequal or empty windows
// cannot be fused, so training and fine-tuning return an error and leave
// the weights untouched.
func TestRaggedWindowsRejected(t *testing.T) {
	cfg := DefaultModelConfig(2, 4)
	cfg.Hidden = 6
	cfg.Epochs = 1
	ragged := synthSamples(20, 2, 4, 37)
	ragged = append(ragged, synthSamples(5, 2, 3, 39)...)
	empty := []Sample{{Latency: 0.5}, {Latency: 0.2}}
	for name, samples := range map[string][]Sample{"ragged": ragged, "empty": empty} {
		m, _ := NewModel(cfg)
		before := snapshotParams(m)
		if _, err := m.TrainContext(context.Background(), samples, TrainOpts{}); err == nil {
			t.Errorf("%s: TrainContext accepted the windows", name)
		}
		if _, err := m.FineTuneContext(context.Background(), samples, 1, 0, TrainOpts{}); err == nil {
			t.Errorf("%s: FineTuneContext accepted the windows", name)
		}
		for pi, p := range m.Params() {
			for di := range p.Data {
				if p.Data[di] != before[pi][di] {
					t.Fatalf("%s: param %d changed", name, pi)
				}
			}
		}
	}
}

// TestMulLanesTMatchesMulVecT pins the batched backward GEMM to its
// per-vector reference.
func TestMulLanesTMatchesMulVecT(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	s := stats.NewStream(5)
	m := NewMatrix(12, 7)
	m.InitXavier(s)
	n, stride := 9, 14
	dys := make([]float64, n*stride)
	for i := range dys {
		dys[i] = s.NormFloat64()
	}
	out := make([]float64, n*m.Cols)
	r0, r1 := 2, 12
	m.MulLanesT(r0, r1, dys, stride, n, out, pool)
	for a := 0; a < n; a++ {
		want := Zeros(m.Cols)
		for r := r0; r < r1; r++ {
			d := dys[a*stride+r]
			for c := 0; c < m.Cols; c++ {
				want[c] += m.Data[r*m.Cols+c] * d
			}
		}
		for c := range want {
			if got := out[a*m.Cols+c]; got != want[c] {
				t.Fatalf("lane %d col %d: %v != %v", a, c, got, want[c])
			}
		}
	}
}

// TestAddGradLanesMatchesAddOuterGrad pins the batched weight-gradient
// kernel to per-lane AddOuterGrad calls in ascending-lane order (the
// documented reduction order), including worker-count invariance.
func TestAddGradLanesMatchesAddOuterGrad(t *testing.T) {
	s := stats.NewStream(6)
	ref := NewMatrix(10, 6)
	ref.InitXavier(s)
	n, stride := 11, 10
	dys := make([]float64, n*stride)
	xs := make([]float64, n*ref.Cols)
	for i := range dys {
		dys[i] = s.NormFloat64()
	}
	for i := range xs {
		xs[i] = s.NormFloat64()
	}
	for a := 0; a < n; a++ {
		ref.AddOuterGrad(dys[a*stride:a*stride+stride], xs[a*ref.Cols:(a+1)*ref.Cols])
	}
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		got := NewMatrix(10, 6)
		copy(got.Data, ref.Data)
		got.AddGradLanes(0, 10, dys, stride, n, xs, pool)
		for i := range ref.Grad {
			if got.Grad[i] != ref.Grad[i] {
				t.Fatalf("workers=%d grad %d: %v != %v", workers, i, got.Grad[i], ref.Grad[i])
			}
		}
		pool.Close()
	}
}

func snapshotParams(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Data...))
	}
	return out
}
