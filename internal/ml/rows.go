package ml

// Row-vectorized matrix–vector kernel for the inference lane bank
// (DESIGN.md decisions 6 and 11). A fused inference step usually
// advances only a handful of lanes, too few to fill a lane-tiled GEMM,
// so inference vectorizes over a weight matrix's output ROWS instead:
// the matrix is kept k-major (transposed, kMajor) and each input
// element x[k] scales one contiguous weight column into the per-row
// accumulators. That runs at full SIMD width for a single lane, with no
// packing, tiles or remainder lanes.
//
// Every accumulator is still its own ascending-k multiply-then-add
// chain, acc[r] += W[r][k]*x[k], exactly the chain DotAcc runs for row
// r, so results are bitwise equal to Dot/DotAcc: the vector kernels
// (rowsAcc2, rowsAcc4) hold a block of row accumulators in registers
// across the k loop with separate multiply and add instructions (never
// FMA) and reduce nothing across rows.

// rowKernel is an assembly row kernel (rowsAcc2, rowsAcc4): accRows'
// contract over raw pointers, with the column stride in bytes.
type rowKernel func(acc *float64, r int, w *float64, ldB int, x *float64, k int)

// kMajor is a weight matrix stored transposed: element (r, k) of the
// rows × cols source lives at data[k*rows + r], so one input element's
// weight column is contiguous.
type kMajor struct {
	rows int
	data []float64
}

// newKMajor copies m into k-major order.
func newKMajor(m *Matrix) kMajor {
	var t kMajor
	t.load(m)
	return t
}

// load copies m into k-major order, reusing t's buffer.
func (t *kMajor) load(m *Matrix) {
	t.rows = m.Rows
	t.data = growFloats(t.data, len(m.Data))
	for r := 0; r < m.Rows; r++ {
		for k, w := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			t.data[k*m.Rows+r] = w
		}
	}
}

// accRows accumulates, for every output row r in [r0, r0+len(acc)),
//
//	acc[r-r0] += Σ_k W[r][k] * x[k]   (ascending k)
//
// skipping x[k] == 0. The skip is exact whenever no accumulator holds
// -0 and the weights are finite: w·(±0) is ±0, and s + ±0 == s for every
// s other than -0. A chain that starts at +0 never reaches -0 (a sum is
// -0 only when both addends are), and neither does a GRU candidate
// chain, whose start ax+b is -0 only if the +0-started ax is.
func accRows(acc []float64, w kMajor, r0 int, x []float64, kernel rowKernel) {
	R, ld := len(acc), w.rows
	if R == 0 || len(x) == 0 {
		return
	}
	if kernel != nil {
		_ = w.data[(len(x)-1)*ld+r0+R-1] // the kernel's last read
		kernel(&acc[0], R, &w.data[r0], ld*8, &x[0], len(x))
		return
	}
	// Eight rows at a time, their accumulators in registers across the
	// k loop (rowsAcc2/rowsAcc4 do the same with vector registers).
	data := w.data
	j := 0
	for ; j+8 <= R; j += 8 {
		a := acc[j : j+8 : j+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		o := r0 + j
		for _, v := range x {
			if v != 0 {
				c := data[o : o+8 : o+8]
				s0 += c[0] * v
				s1 += c[1] * v
				s2 += c[2] * v
				s3 += c[3] * v
				s4 += c[4] * v
				s5 += c[5] * v
				s6 += c[6] * v
				s7 += c[7] * v
			}
			o += ld
		}
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < R; j++ {
		s := acc[j]
		o := r0 + j
		for _, v := range x {
			if v != 0 {
				s += data[o] * v
			}
			o += ld
		}
		acc[j] = s
	}
}
