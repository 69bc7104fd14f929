package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// b1Golden is one pinned BatchSize=1 training outcome: the SHA-256 of
// the trained model's JSON artifact and the bits of every epoch loss.
type b1Golden struct {
	model string
	loss  []uint64
}

// TestTrainB1Golden pins BatchSize=1 training bitwise for every trunk
// class, one and two layers deep. The values were captured from the
// scalar per-sample BPTT trainer (ForwardWindow + Trace.Backward, one
// optimizer step per sample) before it was retired; the minibatch
// trainer running batches of one must reproduce them exactly, under
// every GEMM kernel family (make test-kernels). Never re-capture them:
// a mismatch means the fused trainer's arithmetic order drifted.
func TestTrainB1Golden(t *testing.T) {
	golden := map[string]b1Golden{
		"lstm": {
			"432ad78b2a571de023c6035b43053d766be1ee7668604da03bce169eccee82ed",
			[]uint64{0x3fe5795c660c5be6, 0x3fe2d889ccedb9c6, 0x3fe0c76044b45acf},
		},
		"lstm2": {
			"89854aaf0814e2d8c412d482d864be8c9f08023c377c5482d6427a67250d672f",
			[]uint64{0x3fe4ebfc5d0ff02e, 0x3fe38e538cdf3977, 0x3fe3184640e55382},
		},
		"gru": {
			"d26d2350aa5c13115593facfe8abb187585c8a7ff32e898187d65df68c77c47a",
			[]uint64{0x3fe4d328d9034513, 0x3fe166f5fd69c852, 0x3fde6301b5398743},
		},
		"gru2": {
			"2bc221f16b667bd0f9897ae8219b357f63fa7acc8d2b4aaf6f5e650623499b1b",
			[]uint64{0x3fe4ab85ebc88480, 0x3fe27d2c7f871f04, 0x3fe044cb3e98f451},
		},
		"mlp": {
			"9f396427721c12011d4f03faa0cf1b8bf5eb3b56e8ecc31bb4d4fdd2fca57902",
			[]uint64{0x3fe9c440a2aebc12, 0x3fe38d7536fbba0a, 0x3fe0d118b39c32a6},
		},
	}
	for name, want := range golden {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultModelConfig(4, 6)
			cfg.Hidden = 8
			cfg.Epochs = 3
			cfg.BatchSize = 1
			switch name {
			case "lstm2":
				cfg.Layers = 2
			case "gru":
				cfg.CellType = "gru"
			case "gru2":
				cfg.CellType = "gru"
				cfg.Layers = 2
			case "mlp":
				cfg.CellType = "mlp"
			}
			// Stream-shaped data: early windows are zero-padded, so the
			// zero-skipping kernels see exact zeros too.
			_, view := synthStream(90, cfg.Features, cfg.Window, 211)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := m.TrainSource(view)
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got := b1Golden{model: hex.EncodeToString(sum[:])}
			for _, l := range res.EpochLoss {
				got.loss = append(got.loss, math.Float64bits(l))
			}
			if got.model != want.model {
				t.Errorf("model sha256 = %s, want %s", got.model, want.model)
			}
			if len(got.loss) != len(want.loss) {
				t.Fatalf("epoch loss bits = %#x, want %#x", got.loss, want.loss)
			}
			for e := range got.loss {
				if got.loss[e] != want.loss[e] {
					t.Errorf("epoch %d loss bits = %#x, want %#x", e, got.loss[e], want.loss[e])
				}
			}
		})
	}
}
