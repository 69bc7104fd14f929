package ml

import (
	"fmt"
	"sync"
)

// This file implements the batched Mimic inference engine's ML half —
// fused batched LSTM steps (the GRU's live in gru.go) and
// BatchedStatefulModel, a bank of B independent hidden states advanced
// through one fused step per "round" — plus the lane-tiled,
// pool-parallel GEMMs of the minibatch trainer (MulLanes, MulLanesT,
// AddGradLanes). The simulator half (request collection and flushing)
// lives in internal/core's InferenceScheduler.
//
// The per-packet path computes one matrix–vector product per packet per
// direction per Mimic. A fused step still computes one matrix–vector
// product per lane, since rounds rarely hold more than a few lanes, but
// through the row kernel (rows.go): each bank keeps k-major weight
// copies and vectorizes over output rows, so even a single lane runs at
// full SIMD width, with no packing and no per-step allocation. The
// lanes of a step share one pool dispatch at most. Per-element
// arithmetic order is identical, so predictions match the per-packet
// path bit-for-bit.

// GEMM tile sizes: a weight-row block stays resident while it is reused
// across a block of lanes. Tiles are the unit of pool parallelism.
const (
	gemmRowBlock  = 32
	gemmLaneBlock = 16
	// gemmSerialFLOPs is the work floor (multiply-adds) below which
	// tiling/dispatch overhead exceeds the win: the trainer's GEMMs and
	// a fused inference step run serial below it.
	gemmSerialFLOPs = 1 << 13
)

// MulLanes is the batched counterpart of MulVec: for every lane a in
// [0, n) and every row r in [r0, r1) it computes
//
//	out[a*outStride + r] = Dot(M.row(r), xs[a*M.Cols : (a+1)*M.Cols])
//
// xs is n×Cols row-major; out rows are outStride wide and indexed by the
// absolute row number r (so outStride must be >= r1). The computation is
// cache-blocked over (rows × lanes) tiles and distributed across pool;
// each output element is produced by exactly one tile with a fixed
// k-order accumulation (Dot), so results are bitwise identical to n
// MulVec calls regardless of worker count.
func (m *Matrix) MulLanes(r0, r1 int, xs []float64, n int, out []float64, outStride int, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: MulLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if outStride < r1 {
		panic(fmt.Sprintf("ml: MulLanes outStride %d < r1 %d", outStride, r1))
	}
	if n < 0 || len(xs) < n*m.Cols {
		panic(fmt.Sprintf("ml: MulLanes xs len %d < %d lanes × %d cols", len(xs), n, m.Cols))
	}
	if len(out) < n*outStride {
		panic(fmt.Sprintf("ml: MulLanes out len %d < %d lanes × stride %d", len(out), n, outStride))
	}
	rows, K := r1-r0, m.Cols
	if rows == 0 || n == 0 {
		return
	}
	// First-layer inputs are mostly one-hot (rack/server/agg/core blocks),
	// so over half the multiply-adds are against exact zeros. Skipping a
	// w·0 term never changes an IEEE sum whose accumulator starts at +0
	// (s + ±0 == s, and +0 + -0 == +0), so the sparse path is bitwise
	// identical to the dense one. Hidden-state inputs are dense and fail
	// the density test, falling through to the dense kernel.
	if rows >= 4 && n*K >= 64 {
		nnz := 0
		for _, v := range xs[:n*K] {
			if v != 0 {
				nnz++
			}
		}
		if 2*nnz <= n*K {
			m.mulLanesSparse(r0, r1, xs, n, out, outStride, pool)
			return
		}
	}
	// The kernel routes full lane blocks through the selected microkernel
	// family (gemm_dispatch.go): 16-lane k-major tiles through AVX2
	// gemm16, then 8-lane remainders through SSE2 gemm8. Packed lanes
	// advance through k with (V)MULPD-then-(V)ADDPD — one independent
	// accumulator chain per lane, still in strict k order, so every
	// output element is bitwise equal to a lone Dot. Remainder lanes (or
	// the scalar family) fall through to a pure-Go loop with 4
	// independent accumulators: a single Dot is one serial dependency
	// chain and is latency-bound; multiple chains fill the FPU pipeline
	// and reuse the weight row from registers/L1.
	tileLanes := gemmKernel().tileLanes
	kernel := func(rlo, rhi, alo, ahi int) {
		a0 := alo
		if tileLanes > 0 && K > 0 && a0+8 <= ahi {
			tp := tileScratch.Get().(*[]float64)
			tile := growFloats(*tp, tileLanes*K)
			if tileLanes >= 16 {
				for ; a0+16 <= ahi; a0 += 16 {
					for j := 0; j < 16; j++ {
						lx := xs[(a0+j)*K : (a0+j+1)*K]
						for k, v := range lx {
							tile[k*16+j] = v
						}
					}
					gemm16(&m.Data[rlo*K], rhi-rlo, K, &tile[0], 128, &out[a0*outStride+rlo], outStride*8)
				}
			}
			for ; a0+8 <= ahi; a0 += 8 {
				for j := 0; j < 8; j++ {
					lx := xs[(a0+j)*K : (a0+j+1)*K]
					for k, v := range lx {
						tile[k*8+j] = v
					}
				}
				gemm8(&m.Data[rlo*K], rhi-rlo, K, &tile[0], 64, &out[a0*outStride+rlo], outStride*8)
			}
			*tp = tile
			tileScratch.Put(tp)
		}
		for r := rlo; r < rhi; r++ {
			wrow := m.Data[r*K : (r+1)*K]
			a := a0
			for ; a+4 <= ahi; a += 4 {
				// Re-slicing to len(wrow) lets the compiler drop the
				// per-element bounds checks inside the hot loop.
				x0 := xs[a*K : (a+1)*K][:len(wrow)]
				x1 := xs[(a+1)*K : (a+2)*K][:len(wrow)]
				x2 := xs[(a+2)*K : (a+3)*K][:len(wrow)]
				x3 := xs[(a+3)*K : (a+4)*K][:len(wrow)]
				var s0, s1, s2, s3 float64
				for k, w := range wrow {
					s0 += w * x0[k]
					s1 += w * x1[k]
					s2 += w * x2[k]
					s3 += w * x3[k]
				}
				out[a*outStride+r] = s0
				out[(a+1)*outStride+r] = s1
				out[(a+2)*outStride+r] = s2
				out[(a+3)*outStride+r] = s3
			}
			for ; a < ahi; a++ {
				out[a*outStride+r] = Dot(wrow, xs[a*K:(a+1)*K])
			}
		}
	}
	if pool.Workers() <= 1 || rows*n*K < gemmSerialFLOPs {
		kernel(r0, r1, 0, n)
		return
	}
	rTiles := (rows + gemmRowBlock - 1) / gemmRowBlock
	aTiles := (n + gemmLaneBlock - 1) / gemmLaneBlock
	pool.For(rTiles*aTiles, func(t int) {
		rlo := r0 + (t/aTiles)*gemmRowBlock
		rhi := rlo + gemmRowBlock
		if rhi > r1 {
			rhi = r1
		}
		alo := (t % aTiles) * gemmLaneBlock
		ahi := alo + gemmLaneBlock
		if ahi > n {
			ahi = n
		}
		kernel(rlo, rhi, alo, ahi)
	})
}

// tileScratch recycles the k-major lane tiles the gemm8/gemm16 paths
// pack; tiles are small (at most 16 × Cols) but the GEMM runs on every
// model step.
var tileScratch = sync.Pool{New: func() any { return new([]float64) }}

// MulLanesT is the backprop of y = Mx into x over a batch: for every
// lane a in [0, n) it accumulates
//
//	out[a*Cols + c] += Σ_{r in [r0,r1)} dys[a*dyStride + r] * M[r][c]
//
// dys rows are dyStride wide and indexed by absolute row number (the
// same layout MulLanes writes), so a trainer can feed gate gradients
// straight back through the weight matrices. Accumulation per output
// element is in strictly ascending r order and each lane is produced by
// exactly one tile, so results are bitwise independent of worker count.
func (m *Matrix) MulLanesT(r0, r1 int, dys []float64, dyStride, n int, out []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: MulLanesT rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: MulLanesT dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: MulLanesT dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(out) < n*K {
		panic(fmt.Sprintf("ml: MulLanesT out len %d < %d lanes × %d cols", len(out), n, K))
	}
	if n == 0 {
		return
	}
	// The d == 0 skip must stay ahead of the axpy kernel: skipping a row
	// is NOT the same as adding d*row when the row holds ±Inf or NaN
	// (0*Inf = NaN), and zero gate gradients are common (saturated
	// sigmoids), so the skip is both a correctness guard and a win.
	useAxpy := K >= 8 && gemmKernel().axpy
	kernel := func(alo, ahi int) {
		for a := alo; a < ahi; a++ {
			o := out[a*K : (a+1)*K]
			for r := r0; r < r1; r++ {
				d := dys[a*dyStride+r]
				if d == 0 {
					continue
				}
				row := m.Data[r*K : (r+1)*K][:len(o)]
				if useAxpy {
					// o[c] += d*row[c] elementwise — the exact scalar
					// expression per element, just 4 lanes per instruction.
					axpy4(&o[0], &row[0], K, d)
					continue
				}
				for c, v := range row {
					o[c] += v * d
				}
			}
		}
	}
	if pool.Workers() <= 1 || (r1-r0)*n*K < gemmSerialFLOPs {
		kernel(0, n)
		return
	}
	aTiles := (n + gemmLaneBlock - 1) / gemmLaneBlock
	pool.For(aTiles, func(t int) {
		alo := t * gemmLaneBlock
		ahi := alo + gemmLaneBlock
		if ahi > n {
			ahi = n
		}
		kernel(alo, ahi)
	})
}

// AddGradLanes is the batched counterpart of AddOuterGrad (the weight
// gradient of y = Mx over a minibatch): for r in [r0,r1) it accumulates
//
//	Grad[r][c] += Σ_{a in [0,n)} dys[a*dyStride + r] * xs[a*Cols + c]
//
// The lane sum runs in strictly ascending a order for every element —
// the fixed reduction order that makes minibatch gradients bitwise
// reproducible run to run — and each gradient row is owned by exactly
// one tile, so results are also independent of worker count.
func (m *Matrix) AddGradLanes(r0, r1 int, dys []float64, dyStride, n int, xs []float64, pool *Pool) {
	if r0 < 0 || r1 > m.Rows || r0 > r1 {
		panic(fmt.Sprintf("ml: AddGradLanes rows [%d,%d) outside matrix with %d rows", r0, r1, m.Rows))
	}
	if dyStride < r1 {
		panic(fmt.Sprintf("ml: AddGradLanes dyStride %d < r1 %d", dyStride, r1))
	}
	if n < 0 || len(dys) < n*dyStride {
		panic(fmt.Sprintf("ml: AddGradLanes dys len %d < %d lanes × stride %d", len(dys), n, dyStride))
	}
	K := m.Cols
	if len(xs) < n*K {
		panic(fmt.Sprintf("ml: AddGradLanes xs len %d < %d lanes × %d cols", len(xs), n, K))
	}
	if n == 0 {
		return
	}
	// Same d == 0 guard as MulLanesT: it must precede the axpy call
	// (0*Inf = NaN) and skipped lanes keep the ascending-a reduction
	// order intact because a skipped term is an exact no-op.
	useAxpy := K >= 8 && gemmKernel().axpy
	kernel := func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			g := m.Grad[r*K : (r+1)*K]
			for a := 0; a < n; a++ {
				d := dys[a*dyStride+r]
				if d == 0 {
					continue
				}
				if useAxpy {
					axpy4(&g[0], &xs[a*K], K, d)
					continue
				}
				x := xs[a*K : (a+1)*K][:len(g)]
				for c, v := range x {
					g[c] += d * v
				}
			}
		}
	}
	rows := r1 - r0
	if pool.Workers() <= 1 || rows*n*K < gemmSerialFLOPs {
		kernel(r0, r1)
		return
	}
	rTiles := (rows + gemmRowBlock - 1) / gemmRowBlock
	pool.For(rTiles, func(t int) {
		rlo := r0 + t*gemmRowBlock
		rhi := rlo + gemmRowBlock
		if rhi > r1 {
			rhi = r1
		}
		kernel(rlo, rhi)
	})
}

// addBiasGradLanes accumulates Grad[r] += Σ_a dys[a*dyStride + r] for
// r in [r0,r1), in ascending-lane order per element (lanes outer for
// locality; the per-element order is still ascending a).
func addBiasGradLanes(b *Matrix, r0, r1 int, dys []float64, dyStride, n int) {
	for a := 0; a < n; a++ {
		row := dys[a*dyStride:]
		for r := r0; r < r1; r++ {
			b.Grad[r] += row[r]
		}
	}
}

// mulLanesSparse is MulLanes for lanes whose inputs are mostly zero: it
// packs each lane's nonzero (index, value) pairs once, then reuses the
// packed stream across four weight rows at a time — four independent
// accumulator chains sharing each loaded value. Accumulation per output
// element remains in ascending-k order over the nonzero terms, which is
// bitwise equal to the dense sum (skipped terms are exact zeros).
func (m *Matrix) mulLanesSparse(r0, r1 int, xs []float64, n int, out []float64, outStride int, pool *Pool) {
	K := m.Cols
	idx := make([]int32, 0, n*K/2)
	val := make([]float64, 0, n*K/2)
	off := make([]int, n+1)
	for a := 0; a < n; a++ {
		row := xs[a*K : (a+1)*K]
		for k, v := range row {
			if v != 0 {
				idx = append(idx, int32(k))
				val = append(val, v)
			}
		}
		off[a+1] = len(idx)
	}
	kernel := func(alo, ahi int) {
		for a := alo; a < ahi; a++ {
			ii := idx[off[a]:off[a+1]]
			vv := val[off[a]:off[a+1]][:len(ii)]
			r := r0
			for ; r+4 <= r1; r += 4 {
				w0 := m.Data[r*K : (r+1)*K]
				w1 := m.Data[(r+1)*K : (r+2)*K]
				w2 := m.Data[(r+2)*K : (r+3)*K]
				w3 := m.Data[(r+3)*K : (r+4)*K]
				var s0, s1, s2, s3 float64
				for j, id := range ii {
					v := vv[j]
					s0 += w0[id] * v
					s1 += w1[id] * v
					s2 += w2[id] * v
					s3 += w3[id] * v
				}
				base := a * outStride
				out[base+r] = s0
				out[base+r+1] = s1
				out[base+r+2] = s2
				out[base+r+3] = s3
			}
			for ; r < r1; r++ {
				wrow := m.Data[r*K : (r+1)*K]
				var s float64
				for j, id := range ii {
					s += wrow[id] * vv[j]
				}
				out[a*outStride+r] = s
			}
		}
	}
	if pool.Workers() <= 1 || n < 2*gemmLaneBlock {
		kernel(0, n)
		return
	}
	aTiles := (n + gemmLaneBlock - 1) / gemmLaneBlock
	pool.For(aTiles, func(t int) {
		alo := t * gemmLaneBlock
		ahi := alo + gemmLaneBlock
		if ahi > n {
			ahi = n
		}
		kernel(alo, ahi)
	})
}

// lstmBatchState is the recurrent state of `lanes` independent LSTM
// streams, stored densely (lanes × H), the bank's k-major weight copies,
// and per-lane step scratch grown on demand.
type lstmBatchState struct {
	batchStep
	cell *LSTM
	h, c []float64
	// k-major copies of Wx and Wh (rows.go), taken once per bank: the
	// weights must not change while the bank is live.
	wxT, whT kMajor
	// pre-activation scratch, 4H per lane of the step in flight
	zx, zh []float64
}

// batchStep holds the arguments of the fused step in flight, so the
// per-lane body can be a method value bound once per bank rather than a
// closure allocated per step.
type batchStep struct {
	lanes  []int
	xs, hs []float64
	rows   rowKernel
	wide   bool
	laneFn func(int)
}

// run starts one fused step over lanes: one call of laneFn per lane,
// inline when the step's multiply-adds fall under gemmSerialFLOPs (or
// the pool is serial), else a single pool dispatch over the lanes.
func (b *batchStep) run(lanes []int, xs, hs []float64, flopsPerLane int, pool *Pool) {
	impl := gemmKernel()
	b.lanes, b.xs, b.hs, b.rows, b.wide = lanes, xs, hs, impl.rows, impl.wideGates
	n := len(lanes)
	if pool.Workers() <= 1 || n*flopsPerLane < gemmSerialFLOPs {
		for a := 0; a < n; a++ {
			b.laneFn(a)
		}
	} else {
		pool.For(n, b.laneFn)
	}
}

// NewBatchState returns zeroed state for `lanes` LSTM lanes.
func (l *LSTM) NewBatchState(lanes int) BatchState {
	s := &lstmBatchState{
		cell: l,
		h:    make([]float64, lanes*l.Hidden),
		c:    make([]float64, lanes*l.Hidden),
		wxT:  newKMajor(l.Wx),
		whT:  newKMajor(l.Wh),
	}
	s.laneFn = s.laneStep
	return s
}

// GrowBatchState appends one zeroed lane.
func (l *LSTM) GrowBatchState(st BatchState) int {
	s := st.(*lstmBatchState)
	lane := len(s.h) / l.Hidden
	s.h = append(s.h, make([]float64, l.Hidden)...)
	s.c = append(s.c, make([]float64, l.Hidden)...)
	return lane
}

// ResetBatchLane zeroes one lane's hidden and cell state.
func (l *LSTM) ResetBatchLane(st BatchState, lane int) {
	s := st.(*lstmBatchState)
	H := l.Hidden
	zeroRange(s.h[lane*H : (lane+1)*H])
	zeroRange(s.c[lane*H : (lane+1)*H])
}

func zeroRange(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// StepBatch advances the listed lanes through one fused LSTM step. Each
// lane runs its input and recurrent projections through the row kernel
// (accRows over the k-major weights) and then its gates, all in one
// per-lane body, so a step costs at most one pool dispatch. Per-element
// math mirrors LSTM.Step exactly (zx + (zh + b), same gate
// expressions), so outputs equal the per-packet path bit-for-bit.
func (l *LSTM) StepBatch(st BatchState, lanes []int, xs []float64, hs []float64, pool *Pool) {
	s := st.(*lstmBatchState)
	n := len(lanes)
	if n == 0 {
		return
	}
	H := l.Hidden
	s.zx = growFloats(s.zx, n*4*H)
	s.zh = growFloats(s.zh, n*4*H)
	s.run(lanes, xs, hs, 4*H*(l.In+H), pool)
}

// laneStep advances lane lanes[a] of the step in flight. Lanes are
// distinct, so the body reads and writes its lane's state in place.
func (s *lstmBatchState) laneStep(a int) {
	l := s.cell
	H, In := l.Hidden, l.In
	lane := s.lanes[a]
	h := s.h[lane*H : (lane+1)*H]
	cPrev := s.c[lane*H : (lane+1)*H]
	zx := s.zx[a*4*H : (a+1)*4*H]
	zh := s.zh[a*4*H : (a+1)*4*H]
	zeroRange(zx)
	zeroRange(zh)
	accRows(zx, s.wxT, 0, s.xs[a*In:(a+1)*In], s.rows)
	accRows(zh, s.whT, 0, h, s.rows)
	bias := l.B.Data
	wide := s.wide
	// Same association as Step: z[i] += zh[i] + B[i]. The pre-adds are
	// hoisted out of the gate loop so the sigmoid/tanh passes run over
	// contiguous quarters — 4 lanes per instruction when the wide gate
	// kernels are live, the same scalar calls per element either way.
	for j, v := range zh {
		zx[j] += v + bias[j]
	}
	sigmoidLanes(zx[:2*H], zx[:2*H], wide)       // i and f (adjacent quarters)
	tanhLanes(zx[2*H:3*H], zx[2*H:3*H], wide)    // g
	sigmoidLanes(zx[3*H:4*H], zx[3*H:4*H], wide) // o
	for j := 0; j < H; j++ {
		// cNew = f*cPrev + i*g, exactly as Step associates it.
		cPrev[j] = zx[H+j]*cPrev[j] + zx[j]*zx[2*H+j]
	}
	hRow := s.hs[a*H : (a+1)*H]
	tanhLanes(hRow, cPrev, wide)
	for j := 0; j < H; j++ {
		hRow[j] = zx[3*H+j] * hRow[j]
	}
	copy(h, hRow)
}

// growFloats returns buf with length at least n (contents unspecified).
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// batchLayer is one trunk layer of a BatchedStatefulModel: a fused
// batched state when the cell supports it, else per-lane fallback states.
type batchLayer struct {
	cell   Cell
	bc     BatchedCell // nil when the cell has no fused step (e.g. mlp)
	bs     BatchState
	states []CellState
}

// BatchedStatefulModel carries B independent recurrent streams ("lanes")
// of one trained model through fused steps: the batched counterpart of B
// StatefulModels sharing weights. One lane corresponds to one Mimic
// direction's packet stream; a step over k lanes does the work of k
// StatefulModel.Predict calls in one pass.
type BatchedStatefulModel struct {
	model  *Model
	pool   *Pool
	lanes  int
	layers []*batchLayer

	// LaneSteps counts inference steps per lane, keeping the Figure 23
	// compute accounting exact per Mimic.
	LaneSteps []uint64

	// double-buffered dense activations for one fused step
	bufA, bufB []float64
}

// NewBatchedStatefulModel builds a lane bank over a trained model. A nil
// pool uses the process-wide SharedPool.
func NewBatchedStatefulModel(m *Model, lanes int, pool *Pool) *BatchedStatefulModel {
	if pool == nil {
		pool = SharedPool()
	}
	b := &BatchedStatefulModel{model: m, pool: pool, lanes: lanes, LaneSteps: make([]uint64, lanes)}
	for _, c := range m.Trunk {
		bl := &batchLayer{cell: c}
		if bc, ok := c.(BatchedCell); ok {
			bl.bc = bc
			bl.bs = bc.NewBatchState(lanes)
		} else {
			bl.states = make([]CellState, lanes)
			for i := range bl.states {
				bl.states[i] = c.FreshState()
			}
		}
		b.layers = append(b.layers, bl)
	}
	return b
}

// Model returns the wrapped model.
func (b *BatchedStatefulModel) Model() *Model { return b.model }

// Lanes returns the current lane count.
func (b *BatchedStatefulModel) Lanes() int { return b.lanes }

// Steps returns total inference steps across all lanes.
func (b *BatchedStatefulModel) Steps() uint64 {
	var total uint64
	for _, s := range b.LaneSteps {
		total += s
	}
	return total
}

// AddLane appends a fresh zero-state lane and returns its index.
func (b *BatchedStatefulModel) AddLane() int {
	for _, bl := range b.layers {
		if bl.bc != nil {
			bl.bc.GrowBatchState(bl.bs)
		} else {
			bl.states = append(bl.states, bl.cell.FreshState())
		}
	}
	b.LaneSteps = append(b.LaneSteps, 0)
	b.lanes++
	return b.lanes - 1
}

// ResetLane zeroes one lane's recurrent state (its step count persists,
// mirroring StatefulModel.Reset).
func (b *BatchedStatefulModel) ResetLane(lane int) {
	for _, bl := range b.layers {
		if bl.bc != nil {
			bl.bc.ResetBatchLane(bl.bs, lane)
		} else {
			bl.states[lane] = bl.cell.FreshState()
		}
	}
}

// StepLanes advances each listed lane by one input. lanes must be
// distinct; xs[i] is lane lanes[i]'s feature vector. When want is nil or
// want[i] is true, out[i] receives the head predictions (out may be nil
// when want masks every lane — feeder advances discard outputs).
func (b *BatchedStatefulModel) StepLanes(lanes []int, xs [][]float64, want []bool, out []Prediction) {
	n := len(lanes)
	if n == 0 {
		return
	}
	obsBatchSize.Observe(float64(n))
	width := b.model.Cfg.Features
	H := b.model.Cfg.Hidden
	max := width
	if H > max {
		max = H
	}
	b.bufA = growFloats(b.bufA, n*max)
	b.bufB = growFloats(b.bufB, n*max)
	cur := b.bufA
	for i, x := range xs {
		if len(x) != width {
			panic(fmt.Sprintf("ml: StepLanes input %d has width %d, want %d", i, len(x), width))
		}
		copy(cur[i*width:(i+1)*width], x)
	}
	next := b.bufB
	for _, bl := range b.layers {
		h := bl.cell.HiddenSize()
		if bl.bc != nil {
			bl.bc.StepBatch(bl.bs, lanes, cur[:n*width], next[:n*h], b.pool)
		} else {
			for a, lane := range lanes {
				hv := bl.cell.StepState(bl.states[lane], cur[a*width:(a+1)*width])
				copy(next[a*h:(a+1)*h], hv)
			}
		}
		cur, next = next, cur
		width = h
	}
	for i, lane := range lanes {
		b.LaneSteps[lane]++
		if want == nil || want[i] {
			out[i] = b.model.headsRow(cur[i*width : (i+1)*width])
		}
	}
}

// PredictLane advances one lane and returns its prediction (a batch of
// one; bit-identical to StatefulModel.Predict on the same stream).
func (b *BatchedStatefulModel) PredictLane(lane int, x []float64) Prediction {
	var (
		lanes = [1]int{lane}
		xs    = [1][]float64{x}
		out   [1]Prediction
	)
	b.StepLanes(lanes[:], xs[:], nil, out[:])
	return out[0]
}

// AdvanceLane advances one lane's hidden state, discarding the output
// (the batched counterpart of StatefulModel.Advance).
func (b *BatchedStatefulModel) AdvanceLane(lane int, x []float64) {
	var (
		lanes = [1]int{lane}
		xs    = [1][]float64{x}
		skip  = [1]bool{false}
	)
	b.StepLanes(lanes[:], xs[:], skip[:], nil)
}

// headsRow computes the three heads without allocating: each head value
// is Sigmoid(Dot(W.row, h) + b). It is the only head evaluator, shared by
// training, Forward, and per-packet and batched inference.
func (m *Model) headsRow(h []float64) Prediction {
	return Prediction{
		Latency: Sigmoid(Dot(m.LatHead.W.Data, h) + m.LatHead.B.Data[0]),
		PDrop:   Sigmoid(Dot(m.DropHead.W.Data, h) + m.DropHead.B.Data[0]),
		PECN:    Sigmoid(Dot(m.ECNHead.W.Data, h) + m.ECNHead.B.Data[0]),
	}
}
