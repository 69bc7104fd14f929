package ml

import (
	"math"

	"mimicnet/internal/stats"
)

// GRU is a gated recurrent unit layer — an alternative trunk class to the
// paper's default LSTM. Gate layout within the stacked 3H dimension is
// [update z, reset r, candidate].
type GRU struct {
	In, Hidden int
	Wx         *Matrix // (3H, In)
	Wh         *Matrix // (3H, H)
	B          *Matrix // (3H, 1)
}

// NewGRU allocates and initializes a GRU layer.
func NewGRU(in, hidden int, s *stats.Stream) *GRU {
	g := &GRU{
		In: in, Hidden: hidden,
		Wx: NewMatrix(3*hidden, in),
		Wh: NewMatrix(3*hidden, hidden),
		B:  NewMatrix(3*hidden, 1),
	}
	g.Wx.InitXavier(s)
	g.Wh.InitXavier(s)
	return g
}

// InSize returns the input width.
func (g *GRU) InSize() int { return g.In }

// HiddenSize returns the hidden width.
func (g *GRU) HiddenSize() int { return g.Hidden }

// Params returns the trainable parameters.
func (g *GRU) Params() []*Matrix { return []*Matrix{g.Wx, g.Wh, g.B} }

// CellType names the class.
func (g *GRU) CellType() string { return "gru" }

// gruState is the recurrent hidden vector.
type gruState struct{ h []float64 }

// FreshState returns a zeroed state.
func (g *GRU) FreshState() CellState { return &gruState{h: Zeros(g.Hidden)} }

// StepState computes
//
//	z = σ(Wz x + Uz h + bz)
//	r = σ(Wr x + Ur h + br)
//	ĥ = tanh(Wc x + Uc (r⊙h) + bc)
//	h' = (1−z)⊙h + z⊙ĥ
func (g *GRU) StepState(st CellState, x []float64) []float64 {
	state := st.(*gruState)
	H := g.Hidden
	ax := g.Wx.MulVec(x, nil)

	// Gate pre-activations from the previous hidden state: z and r use h
	// directly; the candidate uses r⊙h, so it is computed after r.
	ah := Zeros(3 * H)
	for row := 0; row < 2*H; row++ {
		ah[row] = Dot(g.Wh.Data[row*H:(row+1)*H], state.h)
	}
	z, r := Zeros(H), Zeros(H)
	for j := 0; j < H; j++ {
		z[j] = Sigmoid(ax[j] + ah[j] + g.B.Data[j])
		r[j] = Sigmoid(ax[H+j] + ah[H+j] + g.B.Data[H+j])
	}
	rh := Zeros(H)
	for j := 0; j < H; j++ {
		rh[j] = r[j] * state.h[j]
	}
	hHat := Zeros(H)
	for j := 0; j < H; j++ {
		row := g.Wh.Data[(2*H+j)*H : (2*H+j+1)*H]
		hHat[j] = math.Tanh(DotAcc(ax[2*H+j]+g.B.Data[2*H+j], row, rh))
	}
	hNew := Zeros(H)
	for j := 0; j < H; j++ {
		hNew[j] = (1-z[j])*state.h[j] + z[j]*hHat[j]
	}
	state.h = hNew
	return hNew
}

// gruBatchState is the recurrent state of `lanes` independent GRU
// streams (lanes × H dense), the bank's k-major weight copies, and
// per-lane step scratch.
type gruBatchState struct {
	batchStep
	cell *GRU
	h    []float64
	// k-major copies of Wx and Wh (rows.go), taken once per bank.
	wxT, whT kMajor
	// scratch for the step in flight, per lane: ax 3H, ah 2H, rh and z H
	ax, ah, rh, z []float64
}

// NewBatchState returns zeroed state for `lanes` GRU lanes.
func (g *GRU) NewBatchState(lanes int) BatchState {
	s := &gruBatchState{
		cell: g,
		h:    make([]float64, lanes*g.Hidden),
		wxT:  newKMajor(g.Wx),
		whT:  newKMajor(g.Wh),
	}
	s.laneFn = s.laneStep
	return s
}

// GrowBatchState appends one zeroed lane.
func (g *GRU) GrowBatchState(st BatchState) int {
	s := st.(*gruBatchState)
	lane := len(s.h) / g.Hidden
	s.h = append(s.h, make([]float64, g.Hidden)...)
	return lane
}

// ResetBatchLane zeroes one lane's hidden state.
func (g *GRU) ResetBatchLane(st BatchState, lane int) {
	s := st.(*gruBatchState)
	zeroRange(s.h[lane*g.Hidden : (lane+1)*g.Hidden])
}

// StepBatch advances the listed lanes through one fused GRU step: per
// lane, the input and z/r recurrent projections through the row kernel,
// the gates, then the candidate path, which must follow the reset gate
// — one per-lane body, at most one pool dispatch per step. All
// per-element accumulation orders mirror StepState (the same Dot/DotAcc
// chains), so outputs are bit-identical to the per-packet path.
func (g *GRU) StepBatch(st BatchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*gruBatchState)
	n := len(lanes)
	if n == 0 {
		return
	}
	H := g.Hidden
	s.ax = growFloats(s.ax, n*3*H)
	s.ah = growFloats(s.ah, n*2*H)
	s.rh = growFloats(s.rh, n*H)
	s.z = growFloats(s.z, n*H)
	s.run(lanes, xs, hs, 3*H*(g.In+H), pool)
}

// laneStep advances lane lanes[a] of the step in flight in place.
func (s *gruBatchState) laneStep(a int) {
	g := s.cell
	H, In := g.Hidden, g.In
	lane := s.lanes[a]
	hPrev := s.h[lane*H : (lane+1)*H]
	ax := s.ax[a*3*H : (a+1)*3*H]
	ah := s.ah[a*2*H : (a+1)*2*H]
	rh := s.rh[a*H : (a+1)*H]
	z := s.z[a*H : (a+1)*H]
	zeroRange(ax)
	zeroRange(ah)
	accRows(ax, s.wxT, 0, s.xs[a*In:(a+1)*In], s.rows)
	accRows(ah, s.whT, 0, hPrev, s.rows) // z and r rows only
	bias := g.B.Data
	wide := s.wide
	// Pre-activations hoisted so the sigmoid passes run over contiguous
	// ranges (4 lanes per instruction when the wide gate kernels are
	// live); same ax + ah + bias association as StepState.
	for j := 0; j < 2*H; j++ {
		ax[j] = ax[j] + ah[j] + bias[j]
	}
	sigmoidLanes(z, ax[:H], wide)
	sigmoidLanes(rh, ax[H:2*H], wide)
	for j := 0; j < H; j++ {
		rh[j] = rh[j] * hPrev[j] // r ⊙ hPrev
	}
	// Candidate rows: each chain starts at ax+b, as DotAcc does.
	hRow := s.hs[a*H : (a+1)*H]
	for j := range hRow {
		hRow[j] = ax[2*H+j] + bias[2*H+j]
	}
	accRows(hRow, s.whT, 2*H, rh, s.rows)
	tanhLanes(hRow, hRow, wide)
	for j := 0; j < H; j++ {
		hRow[j] = (1-z[j])*hPrev[j] + z[j]*hRow[j]
	}
	copy(hPrev, hRow)
}

var _ Cell = (*GRU)(nil)
