package ml

import (
	"context"
	"encoding/json"
	"fmt"

	"mimicnet/internal/stats"
)

// ModelConfig holds the hyper-parameters of a Mimic internal model; the
// tunable ones (WBCE weight, Huber delta, layers, hidden size, epochs,
// learning rate) are exactly the knobs the paper's hyper-parameter tuning
// phase explores (§7.2).
type ModelConfig struct {
	Features int `json:"features"` // per-packet feature width
	Hidden   int `json:"hidden"`   // LSTM hidden size
	Layers   int `json:"layers"`   // stacked LSTM count
	Window   int `json:"window"`   // packets per training window

	HuberDelta float64        `json:"huber_delta"` // Huber threshold
	LatLoss    RegressionLoss `json:"lat_loss"`    // latency loss selection
	DropWeight float64        `json:"drop_weight"` // WBCE w; 0 => plain BCE

	// Loss mixing weights. The paper favors latency over classification
	// because regression is the harder task (§5.4).
	LatWeight float64 `json:"lat_weight"`
	DropLossW float64 `json:"drop_loss_w"`
	ECNLossW  float64 `json:"ecn_loss_w"`

	LR       float64 `json:"lr"`
	Epochs   int     `json:"epochs"`
	ClipNorm float64 `json:"clip_norm"`
	Seed     int64   `json:"seed"`

	// BatchSize is the minibatch width: one optimizer step per batch of
	// BatchSize samples over fused GEMM passes, and 0 means
	// DefaultBatchSize. 1 runs batches of one, bitwise identical to the
	// retired per-sample scalar trainer (TestTrainB1Golden). Affects
	// training results, so it participates in the model cache key.
	BatchSize int `json:"batch_size,omitempty"`

	// CellType selects the trunk class: "lstm" (default), "gru", or
	// "mlp" (non-recurrent windowed baseline).
	CellType string `json:"cell_type,omitempty"`
}

// DefaultModelConfig returns a small, fast configuration with the paper's
// recommended loss setup (Huber δ=1, WBCE w=0.7).
func DefaultModelConfig(features, window int) ModelConfig {
	return ModelConfig{
		Features: features, Hidden: 24, Layers: 1, Window: window,
		HuberDelta: 1.0, LatLoss: LossHuber, DropWeight: 0.7,
		LatWeight: 2.0, DropLossW: 1.0, ECNLossW: 0.5,
		LR: 3e-3, Epochs: 4, ClipNorm: 5.0, Seed: 1,
		// Explicit (not 0) so the batch size is visible in the
		// serialized config and in model cache keys: models trained at
		// different batch sizes must not collide.
		BatchSize: DefaultBatchSize,
	}
}

// Validate reports configuration errors.
func (c ModelConfig) Validate() error {
	switch {
	case c.Features < 1:
		return fmt.Errorf("ml: features must be >= 1")
	case c.Hidden < 1:
		return fmt.Errorf("ml: hidden must be >= 1")
	case c.Layers < 1:
		return fmt.Errorf("ml: layers must be >= 1")
	case c.Window < 1:
		return fmt.Errorf("ml: window must be >= 1")
	case c.LR <= 0:
		return fmt.Errorf("ml: learning rate must be positive")
	case c.Epochs < 1:
		return fmt.Errorf("ml: epochs must be >= 1")
	case c.BatchSize < 0:
		return fmt.Errorf("ml: batch size must be >= 0 (0 selects the default)")
	}
	switch c.CellType {
	case "", "lstm", "gru":
	case "mlp":
		// The windowed MLP has no recurrent path to route gradients to
		// earlier steps of a layer below it, so stacking would silently
		// truncate gradients. Keep the baseline honest: one layer only.
		if c.Layers > 1 {
			return fmt.Errorf("ml: mlp trunk supports a single layer")
		}
	default:
		return fmt.Errorf("ml: unknown cell type %q", c.CellType)
	}
	return nil
}

// Sample is one training example: a window of packet feature vectors and
// the targets for the window's final packet.
type Sample struct {
	Window  [][]float64
	Latency float64 // normalized to [0,1] by the caller's Discretizer
	Dropped bool
	ECN     bool
}

// Prediction is the model output for one packet.
type Prediction struct {
	Latency float64 // normalized [0,1]
	PDrop   float64
	PECN    float64
}

// Model is the Mimic internal model: a stacked-LSTM trunk over packet
// feature windows with three heads predicting latency, drop probability,
// and ECN-mark probability (paper §5.2, §5.5).
type Model struct {
	Cfg      ModelConfig
	Trunk    []Cell
	LatHead  *Linear
	DropHead *Linear
	ECNHead  *Linear
}

// NewModel builds and initializes a model.
func NewModel(cfg ModelConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := stats.NewStream(cfg.Seed)
	m := &Model{Cfg: cfg}
	in := cfg.Features
	for i := 0; i < cfg.Layers; i++ {
		switch cfg.CellType {
		case "gru":
			m.Trunk = append(m.Trunk, NewGRU(in, cfg.Hidden, s))
		case "mlp":
			m.Trunk = append(m.Trunk, NewWindowMLP(in, cfg.Hidden, cfg.Window, s))
		default:
			m.Trunk = append(m.Trunk, NewLSTM(in, cfg.Hidden, s))
		}
		in = cfg.Hidden
	}
	m.LatHead = NewLinear(cfg.Hidden, 1, s)
	m.DropHead = NewLinear(cfg.Hidden, 1, s)
	m.ECNHead = NewLinear(cfg.Hidden, 1, s)
	return m, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*Matrix {
	var ps []*Matrix
	for _, l := range m.Trunk {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.LatHead.Params()...)
	ps = append(ps, m.DropHead.Params()...)
	ps = append(ps, m.ECNHead.Params()...)
	return ps
}

// Forward predicts for one window (inference): the window's packets
// stepped through the trunk from zero state, then the heads.
func (m *Model) Forward(window [][]float64) Prediction {
	r := NewStatefulRunner(m.Trunk)
	var h []float64
	for _, x := range window {
		h = r.Step(x)
	}
	return m.headsRow(h)
}

// TrainResult reports per-epoch average losses and total wall-clock-free
// work estimates.
type TrainResult struct {
	EpochLoss []float64
	Samples   int
}

// Train fits the model to samples with Adam, shuffling each epoch. It is
// TrainContext without cancellation or progress reporting.
func (m *Model) Train(samples []Sample) TrainResult {
	res, _ := m.TrainContext(context.Background(), samples, TrainOpts{})
	return res
}

// TrainContext fits the model to samples with Adam, shuffling each
// epoch. Cancellation is honored between optimizer steps (parameters are
// never left mid-update; pending gradients are dropped), in which case
// the partial result and ctx's error are returned. opts.Progress, when
// non-nil, receives one report per finished epoch. Samples must share
// one non-empty window length; otherwise TrainContext returns an error
// and leaves the weights untouched.
//
// When opts.ResumeFrom carries a checkpoint, weights, optimizer moments,
// shuffle permutation, and RNG position are restored first and training
// continues at the checkpoint's epoch cursor; the final model is bitwise
// identical to an uninterrupted run with the same config and samples.
func (m *Model) TrainContext(ctx context.Context, samples []Sample, opts TrainOpts) (TrainResult, error) {
	return m.TrainSourceContext(ctx, samplesOf(samples), opts)
}

// TrainSource is Train over a SampleSource (columnar views train
// without materializing []Sample).
func (m *Model) TrainSource(src SampleSource) TrainResult {
	res, _ := m.TrainSourceContext(context.Background(), src, TrainOpts{})
	return res
}

// TrainSourceContext is TrainContext over a SampleSource. Training over
// a SampleView is bitwise identical to training over the equivalent
// []Sample: both feed the same float values through the same loops.
func (m *Model) TrainSourceContext(ctx context.Context, src SampleSource, opts TrainOpts) (TrainResult, error) {
	return m.fit(ctx, m.Cfg.LR, stats.NewStream(m.Cfg.Seed+1), src, m.Cfg.Epochs, opts)
}

// EvalResult aggregates test-set quality per task.
type EvalResult struct {
	LatencyMAE   float64 // on the normalized scale
	DropRateTrue float64
	DropRatePred float64 // expected drop rate from predicted probabilities
	ECNRateTrue  float64
	ECNRatePred  float64
	Loss         float64
}

// Evaluate scores samples without updating parameters.
func (m *Model) Evaluate(samples []Sample) EvalResult {
	return m.EvaluateSource(samplesOf(samples))
}

// EvaluateSource is Evaluate over a SampleSource; windows are gathered
// into a reused buffer of row aliases, so scoring a columnar view
// allocates nothing per sample.
func (m *Model) EvaluateSource(src SampleSource) EvalResult {
	var res EvalResult
	count := src.Len()
	if count == 0 {
		return res
	}
	var win [][]float64
	for i := 0; i < count; i++ {
		win = src.WindowAppend(win[:0], i)
		p := m.Forward(win)
		latTarget, dropped, ecn := src.Target(i)
		l, _ := MAE(p.Latency, latTarget)
		res.LatencyMAE += l
		res.DropRatePred += p.PDrop
		res.ECNRatePred += p.PECN
		if dropped {
			res.DropRateTrue++
		}
		if ecn {
			res.ECNRateTrue++
		}
		latLoss, _ := m.Cfg.LatLoss.Eval(p.Latency, latTarget, m.Cfg.HuberDelta)
		res.Loss += latLoss
	}
	n := float64(count)
	res.LatencyMAE /= n
	res.DropRateTrue /= n
	res.DropRatePred /= n
	res.ECNRateTrue /= n
	res.ECNRatePred /= n
	res.Loss /= n
	return res
}

// FLOPsPerStep estimates floating-point operations for one inference
// step (one packet through trunk + heads), for the Figure 23 compute
// accounting.
func (m *Model) FLOPsPerStep() float64 {
	var f float64
	in := m.Cfg.Features
	for range m.Trunk {
		f += 2 * float64(4*m.Cfg.Hidden*(in+m.Cfg.Hidden))
		in = m.Cfg.Hidden
	}
	f += 3 * 2 * float64(m.Cfg.Hidden) // three scalar heads
	return f
}

// modelJSON is the serialized form.
type modelJSON struct {
	Cfg      ModelConfig `json:"cfg"`
	Trunk    []*cellJSON `json:"trunk"`
	LatHead  *linJSON    `json:"lat_head"`
	DropHead *linJSON    `json:"drop_head"`
	ECNHead  *linJSON    `json:"ecn_head"`
}

// cellJSON serializes any supported trunk cell. LSTM/GRU use Wx/Wh/B;
// the MLP uses W/B with its window size.
type cellJSON struct {
	Type       string `json:"type"`
	In, Hidden int
	Window     int     `json:"window,omitempty"`
	Wx, Wh     *Matrix `json:",omitempty"`
	W          *Matrix `json:",omitempty"`
	B          *Matrix
}

type linJSON struct {
	W, B *Matrix
}

func cellToJSON(c Cell) (*cellJSON, error) {
	switch l := c.(type) {
	case *LSTM:
		return &cellJSON{Type: "lstm", In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B}, nil
	case *GRU:
		return &cellJSON{Type: "gru", In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B}, nil
	case *WindowMLP:
		return &cellJSON{Type: "mlp", In: l.In, Hidden: l.Hidden, Window: l.Window, W: l.W, B: l.B}, nil
	}
	return nil, fmt.Errorf("ml: cannot serialize cell type %q", c.CellType())
}

func cellFromJSON(cj *cellJSON) (Cell, error) {
	switch cj.Type {
	case "lstm":
		return &LSTM{In: cj.In, Hidden: cj.Hidden, Wx: cj.Wx, Wh: cj.Wh, B: cj.B}, nil
	case "gru":
		return &GRU{In: cj.In, Hidden: cj.Hidden, Wx: cj.Wx, Wh: cj.Wh, B: cj.B}, nil
	case "mlp":
		return &WindowMLP{In: cj.In, Hidden: cj.Hidden, Window: cj.Window, W: cj.W, B: cj.B}, nil
	}
	return nil, fmt.Errorf("ml: unknown serialized cell type %q", cj.Type)
}

// MarshalJSON serializes the model weights and config.
func (m *Model) MarshalJSON() ([]byte, error) {
	mj := modelJSON{Cfg: m.Cfg}
	for _, l := range m.Trunk {
		cj, err := cellToJSON(l)
		if err != nil {
			return nil, err
		}
		mj.Trunk = append(mj.Trunk, cj)
	}
	mj.LatHead = &linJSON{m.LatHead.W, m.LatHead.B}
	mj.DropHead = &linJSON{m.DropHead.W, m.DropHead.B}
	mj.ECNHead = &linJSON{m.ECNHead.W, m.ECNHead.B}
	return json.Marshal(mj)
}

// UnmarshalJSON restores a serialized model.
func (m *Model) UnmarshalJSON(b []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(b, &mj); err != nil {
		return err
	}
	if err := mj.validate(); err != nil {
		return err
	}
	m.Cfg = mj.Cfg
	m.Trunk = nil
	for _, cj := range mj.Trunk {
		c, err := cellFromJSON(cj)
		if err != nil {
			return err
		}
		m.Trunk = append(m.Trunk, c)
	}
	m.LatHead = &Linear{W: mj.LatHead.W, B: mj.LatHead.B}
	m.DropHead = &Linear{W: mj.DropHead.W, B: mj.DropHead.B}
	m.ECNHead = &Linear{W: mj.ECNHead.W, B: mj.ECNHead.B}
	return nil
}

// validate checks a decoded model against its own config before any of
// it is used: every head present and 1×Hidden, Layers trunk cells of the
// configured class, each with the weight shapes its In/Hidden imply and
// In/Hidden matching Features/Hidden. A blob that decodes but fails
// these (truncated, hand-edited, or from another schema) is an error,
// never a panic later in inference.
func (mj *modelJSON) validate() error {
	c := mj.Cfg
	switch {
	case c.Features < 1 || c.Hidden < 1 || c.Layers < 1:
		return fmt.Errorf("ml: model config needs features, hidden and layers >= 1 (got %d, %d, %d)",
			c.Features, c.Hidden, c.Layers)
	case len(mj.Trunk) != c.Layers:
		return fmt.Errorf("ml: model has %d trunk layers, config says %d", len(mj.Trunk), c.Layers)
	}
	want := c.CellType
	if want == "" {
		want = "lstm"
	}
	H := c.Hidden
	for i, cj := range mj.Trunk {
		in := H
		if i == 0 {
			in = c.Features
		}
		if cj == nil {
			return fmt.Errorf("ml: trunk layer %d missing", i)
		}
		if cj.Type != want {
			return fmt.Errorf("ml: trunk layer %d is %q, config says %q", i, cj.Type, want)
		}
		if cj.In != in || cj.Hidden != H {
			return fmt.Errorf("ml: trunk layer %d is %d→%d, want %d→%d", i, cj.In, cj.Hidden, in, H)
		}
		var err error
		switch cj.Type {
		case "lstm", "gru":
			gates := 4
			if cj.Type == "gru" {
				gates = 3
			}
			err = checkShape("Wx", cj.Wx, gates*H, in)
			if err == nil {
				err = checkShape("Wh", cj.Wh, gates*H, H)
			}
			if err == nil {
				err = checkShape("B", cj.B, gates*H, 1)
			}
		case "mlp":
			if cj.Window < 1 {
				return fmt.Errorf("ml: trunk layer %d: mlp window %d < 1", i, cj.Window)
			}
			err = checkShape("W", cj.W, H, in*cj.Window)
			if err == nil {
				err = checkShape("B", cj.B, H, 1)
			}
		}
		if err != nil {
			return fmt.Errorf("ml: trunk layer %d: %w", i, err)
		}
	}
	for _, h := range []struct {
		name string
		lin  *linJSON
	}{{"lat_head", mj.LatHead}, {"drop_head", mj.DropHead}, {"ecn_head", mj.ECNHead}} {
		if h.lin == nil {
			return fmt.Errorf("ml: model %s missing", h.name)
		}
		err := checkShape("W", h.lin.W, 1, H)
		if err == nil {
			err = checkShape("B", h.lin.B, 1, 1)
		}
		if err != nil {
			return fmt.Errorf("ml: model %s: %w", h.name, err)
		}
	}
	return nil
}

// checkShape reports a missing matrix or one not rows × cols.
func checkShape(name string, m *Matrix, rows, cols int) error {
	if m == nil {
		return fmt.Errorf("%s missing", name)
	}
	if m.Rows != rows || m.Cols != cols {
		return fmt.Errorf("%s is %dx%d, want %dx%d", name, m.Rows, m.Cols, rows, cols)
	}
	return nil
}

// StatefulModel wraps a trained model for streaming per-packet inference
// with persistent hidden state, as embedded in Mimic clusters.
type StatefulModel struct {
	model  *Model
	runner *StatefulRunner
	// Steps counts inference steps for FLOPs accounting.
	Steps uint64
}

// NewStatefulModel builds a streaming wrapper around a trained model.
func NewStatefulModel(m *Model) *StatefulModel {
	return &StatefulModel{model: m, runner: NewStatefulRunner(m.Trunk)}
}

// Predict feeds one packet's features and returns the prediction.
func (s *StatefulModel) Predict(x []float64) Prediction {
	s.Steps++
	h := s.runner.Step(x)
	return s.model.headsRow(h)
}

// Advance updates hidden state for a feeder packet and discards the
// output (paper §6: feeders update internal models' state as if the
// packets were routed, without creating or sending them).
func (s *StatefulModel) Advance(x []float64) {
	s.Steps++
	s.runner.Step(x)
}

// Reset clears the recurrent state.
func (s *StatefulModel) Reset() { s.runner.Reset() }

// Model returns the wrapped model.
func (s *StatefulModel) Model() *Model { return s.model }
