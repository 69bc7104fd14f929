//go:build amd64 && !purego

package ml

// haveGemm8 gates the assembly GEMM microkernels (this file's
// declarations). The lane-tiled GEMM kernels vectorize over LANES and
// the inference row kernels over output ROWS, never over k: each output
// element keeps its own accumulator that sums w[k]*x[k] in ascending-k
// order with separate multiply and add instructions (MULPD/VMULPD then
// ADDPD/VADDPD, never FMA), so every output element is bitwise
// identical to the scalar Dot kernel. gemm8 and rowsAcc2 need only SSE2
// (baseline amd64); gemm16, axpy4 and rowsAcc4 need AVX2 and must only
// be called when the probe in cpu_amd64.go reports cpuHasAVX2 (dispatch
// enforces this).
const haveGemm8 = true

// gemm8 computes, for 8 lanes and `rows` consecutive weight rows,
//
//	out[lane*outStrideB/8 + r] = Σ_k w[r*k8 + k] * xt[k*strideB/8 + lane]
//
// w points at the first weight row (rows × k, row-major, contiguous).
// xt points at a k-major tile: element (k, lane) at byte offset
// k*strideB + lane*8; the tile must hold 8 lanes (strideB >= 64).
// out points at (lane 0, row 0); lanes advance by outStrideB bytes and
// rows by 8 bytes. k must be >= 1 and rows >= 1.
//
//go:noescape
func gemm8(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)

// gemm16 is the AVX2 member of the family: the same contract as gemm8
// but over a 16-lane k-major tile (element (k, lane) at byte offset
// k*strideB + lane*8, strideB >= 128) with two-row blocking — 8 YMM
// accumulators stay live across the k loop. Still VMULPD then VADDPD
// per term, one accumulator component per lane: bitwise equal to Dot.
//
//go:noescape
func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)

// axpy4 computes y[i] += a * x[i] for i in [0, n) with AVX2 (4 float64
// per YMM). Purely elementwise — no reduction — so each element is the
// exact scalar expression y[i] + a*x[i]: bitwise identical to the Go
// loop. y and x must not partially overlap.
//
//go:noescape
func axpy4(y, x *float64, n int, a float64)

// rowsAcc4 is the AVX2 inference row kernel: for j in [0, r) it runs
//
//	acc[j] += w[kk*ldB/8 + j] * x[kk]   for kk = 0, 1, ..., k-1
//
// skipping x[kk] == ±0, with row blocks of up to 32 held in YMM
// accumulators across the whole k loop. VMULPD then VADDPD per term:
// each acc[j] is the ascending-k DotAcc chain, bit for bit. Requires
// AVX2 (dispatch gates on the avx2 family).
//
//go:noescape
func rowsAcc4(acc *float64, r int, w *float64, ldB int, x *float64, k int)

// rowsAcc2 is the SSE2 inference row kernel: rowsAcc4's contract with
// 2 rows per XMM (MULPD then ADDPD). Baseline amd64 only.
//
//go:noescape
func rowsAcc2(acc *float64, r int, w *float64, ldB int, x *float64, k int)

// sigmoid4 writes σ(src[i]) into dst[i] for 4 lanes, cloning the
// repo's scalar Sigmoid over math.Exp's AVX+FMA variant instruction for
// instruction (gates_amd64.s). The returned mask has bit i set when
// lane i stayed on exp's fast path (|x| within the normal-scale range);
// lanes with unset bits hold the ORIGINAL input value in dst, and the
// caller must recompute them in place with the scalar Sigmoid. Requires
// AVX2+FMA (dispatch gates on wideGates). dst and src may be the same
// slice but must not partially overlap.
//
//go:noescape
func sigmoid4(dst, src *float64) (ok uint8)

// tanh4 writes math.Tanh(src[i]) into dst[i] for 4 lanes, cloning the
// Cephes tanh (math/tanh.go) with all three branches blended by mask —
// total over all inputs, no fallback needed. Requires AVX2+FMA.
//
//go:noescape
func tanh4(dst, src *float64)
