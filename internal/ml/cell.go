package ml

// The paper: "MimicNet can support any ML model. Given our desire for
// generality, however, it currently leverages one particularly promising
// class of models: LSTMs" (§5.5). Cell abstracts the trunk layer so the
// framework genuinely supports alternative model classes; this repo ships
// LSTM (the default), GRU, and a windowed MLP baseline.

// CellState is a cell's opaque recurrent state.
type CellState interface{}

// CellCache is a cell's opaque per-step activation record for BPTT.
type CellCache interface{}

// Cell is one trainable trunk layer processed step-by-step over a packet
// stream.
type Cell interface {
	// InSize and HiddenSize give the layer's dimensions.
	InSize() int
	HiddenSize() int
	// Params returns the trainable parameters.
	Params() []*Matrix
	// FreshState returns a zeroed recurrent state.
	FreshState() CellState
	// StepState advances the state by one input and returns the hidden
	// output; when train is true it also returns a cache for backward.
	StepState(st CellState, x []float64, train bool) ([]float64, CellCache)
	// StepBackward consumes one step's cache with the gradients flowing
	// into its hidden output (dh) and carried state (dcarry; nil when the
	// cell has no carry), accumulating parameter gradients and returning
	// gradients for the previous step and input.
	StepBackward(cache CellCache, dh, dcarry []float64) (dhPrev, dcarryPrev, dx []float64)
	// CellType names the cell class for serialization.
	CellType() string
}

// BatchState is a cell's opaque recurrent state for a bank of
// independent lanes (one lane per concurrent packet stream).
type BatchState interface{}

// BatchedCell is implemented by cells that can advance many independent
// recurrent states through one fused step (one pool dispatch at most,
// the row kernel per lane — rows.go). The fused step
// must be bit-exact with calling StepState once per lane: batched
// kernels keep the per-element accumulation order of the per-vector
// path (see Dot/DotAcc), which the parity tests in batch_test.go
// enforce.
type BatchedCell interface {
	Cell
	// NewBatchState returns zeroed recurrent state for `lanes` lanes.
	NewBatchState(lanes int) BatchState
	// GrowBatchState appends one zeroed lane and returns its index.
	GrowBatchState(st BatchState) int
	// ResetBatchLane zeroes one lane's recurrent state.
	ResetBatchLane(st BatchState, lane int)
	// StepBatch advances the listed lanes by one input each. xs is
	// len(lanes)×InSize row-major; the hidden outputs are written to hs
	// (len(lanes)×HiddenSize row-major). Lanes must be distinct.
	StepBatch(st BatchState, lanes []int, xs []float64, hs []float64, pool *Pool)
}

// LSTM adapters to the Cell interface (the concrete methods live in
// layers.go; the fused batched step lives in batch.go).

// InSize returns the input width.
func (l *LSTM) InSize() int { return l.In }

// HiddenSize returns the hidden width.
func (l *LSTM) HiddenSize() int { return l.Hidden }

// FreshState returns a zeroed LSTM state.
func (l *LSTM) FreshState() CellState { return l.NewState() }

// CellType names the class.
func (l *LSTM) CellType() string { return "lstm" }

// StepState adapts Step to the Cell interface.
func (l *LSTM) StepState(st CellState, x []float64, train bool) ([]float64, CellCache) {
	state := st.(*LSTMState)
	var cache *lstmCache
	if train {
		cache = &lstmCache{}
	}
	h := l.Step(state, x, cache)
	if cache == nil {
		return h, nil
	}
	return h, cache
}

// StepBackward adapts stepBackward to the Cell interface. The LSTM's
// carry is its cell state.
func (l *LSTM) StepBackward(cache CellCache, dh, dcarry []float64) (dhPrev, dcarryPrev, dx []float64) {
	if dcarry == nil {
		dcarry = Zeros(l.Hidden)
	}
	return l.stepBackward(cache.(*lstmCache), dh, dcarry)
}

var (
	_ Cell        = (*LSTM)(nil)
	_ BatchedCell = (*LSTM)(nil)
	_ BatchedCell = (*GRU)(nil)
)
