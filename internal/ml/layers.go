package ml

import (
	"math"

	"mimicnet/internal/stats"
)

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	W *Matrix
	B *Matrix // (out, 1), stored as a matrix so optimizers see one type
}

// NewLinear allocates and initializes a linear layer.
func NewLinear(in, out int, s *stats.Stream) *Linear {
	l := &Linear{W: NewMatrix(out, in), B: NewMatrix(out, 1)}
	l.W.InitXavier(s)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Matrix { return []*Matrix{l.W, l.B} }

// LSTM is a single long short-term memory layer. Gate layout within the
// stacked 4H dimension is [input, forget, candidate, output].
type LSTM struct {
	In, Hidden int
	Wx         *Matrix // (4H, In)
	Wh         *Matrix // (4H, H)
	B          *Matrix // (4H, 1)
}

// NewLSTM allocates and initializes an LSTM layer. The forget gate bias
// starts at 1 (the classic trick so memory persists early in training).
func NewLSTM(in, hidden int, s *stats.Stream) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewMatrix(4*hidden, in),
		Wh: NewMatrix(4*hidden, hidden),
		B:  NewMatrix(4*hidden, 1),
	}
	l.Wx.InitXavier(s)
	l.Wh.InitXavier(s)
	for i := hidden; i < 2*hidden; i++ {
		l.B.Data[i] = 1
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *LSTM) Params() []*Matrix { return []*Matrix{l.Wx, l.Wh, l.B} }

// LSTMState is the recurrent state (hidden, cell).
type LSTMState struct {
	H, C []float64
}

// NewState returns a zero state.
func (l *LSTM) NewState() *LSTMState {
	return &LSTMState{H: Zeros(l.Hidden), C: Zeros(l.Hidden)}
}

// Step advances the state by one input and returns the new hidden vector.
func (l *LSTM) Step(st *LSTMState, x []float64) []float64 {
	H := l.Hidden
	z := l.Wx.MulVec(x, nil)
	zh := l.Wh.MulVec(st.H, nil)
	for i := range z {
		z[i] += zh[i] + l.B.Data[i]
	}
	cNew, hNew := Zeros(H), Zeros(H)
	for j := 0; j < H; j++ {
		i_ := Sigmoid(z[j])
		f_ := Sigmoid(z[H+j])
		g_ := math.Tanh(z[2*H+j])
		o_ := Sigmoid(z[3*H+j])
		cNew[j] = f_*st.C[j] + i_*g_
		hNew[j] = o_ * math.Tanh(cNew[j])
	}
	st.C = cNew
	st.H = hNew
	return hNew
}

// StatefulRunner performs streaming inference: it keeps per-layer cell
// state across calls, which is how Mimic models see a continuous packet
// stream (and how feeder packets advance the hidden state without
// emitting outputs, paper §6).
type StatefulRunner struct {
	layers []Cell
	states []CellState
}

// NewStatefulRunner initializes zero states for the stack.
func NewStatefulRunner(layers []Cell) *StatefulRunner {
	r := &StatefulRunner{layers: layers}
	r.states = make([]CellState, len(layers))
	for i, l := range layers {
		r.states[i] = l.FreshState()
	}
	return r
}

// Step feeds one feature vector and returns the top-layer hidden state.
func (r *StatefulRunner) Step(x []float64) []float64 {
	h := x
	for i, l := range r.layers {
		h = l.StepState(r.states[i], h)
	}
	return h
}

// Reset zeroes the recurrent state.
func (r *StatefulRunner) Reset() {
	for i, l := range r.layers {
		r.states[i] = l.FreshState()
	}
}
