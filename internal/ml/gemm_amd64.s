// SSE2 lane-batched GEMM microkernel (and, at the end, the row-batched
// inference kernel rowsAcc2). Vectorization is across lanes
// (one accumulator component per lane), so each output element is the
// same ascending-k multiply-then-add chain as the scalar Dot kernel —
// bitwise identical results. SSE2 only (baseline amd64): no FMA (would
// change rounding), no MOVDDUP (SSE3). The AVX2 members of the family
// live in gemm_avx2_amd64.s and gates_amd64.s.

//go:build !purego

#include "textflag.h"

// func gemm8(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)
TEXT ·gemm8(SB), NOSPLIT, $0-56
	MOVQ	w+0(FP), SI
	MOVQ	rows+8(FP), R8
	MOVQ	k+16(FP), R9
	MOVQ	xt+24(FP), DI
	MOVQ	strideB+32(FP), R10
	MOVQ	out+40(FP), R11
	MOVQ	outStrideB+48(FP), R12

rowloop:
	// 8 lane accumulators in 4 xmm registers
	XORPS	X0, X0
	XORPS	X1, X1
	XORPS	X2, X2
	XORPS	X3, X3
	MOVQ	DI, DX // xt cursor (k = 0)
	MOVQ	R9, CX // k countdown

kloop:
	// broadcast w[k] to both halves of X4 (SSE2 MOVSD+UNPCKLPD)
	MOVSD	(SI), X4
	UNPCKLPD X4, X4
	// one k-slice of the tile: lanes 0..7
	MOVUPS	(DX), X5
	MOVUPS	16(DX), X6
	MOVUPS	32(DX), X7
	MOVUPS	48(DX), X8
	// multiply THEN add — two rounding steps, matching scalar s += w*x
	MULPD	X4, X5
	MULPD	X4, X6
	MULPD	X4, X7
	MULPD	X4, X8
	ADDPD	X5, X0
	ADDPD	X6, X1
	ADDPD	X7, X2
	ADDPD	X8, X3
	ADDQ	$8, SI  // next weight element
	ADDQ	R10, DX // next k-slice of the tile
	DECQ	CX
	JNZ	kloop

	// scatter lane sums to out[lane*outStrideB + r*8]
	// (BX as cursor: R14/R15 are reserved by the Go register ABI)
	MOVQ	R11, BX
	MOVSD	X0, (BX)
	UNPCKHPD X0, X0
	ADDQ	R12, BX
	MOVSD	X0, (BX)
	ADDQ	R12, BX
	MOVSD	X1, (BX)
	UNPCKHPD X1, X1
	ADDQ	R12, BX
	MOVSD	X1, (BX)
	ADDQ	R12, BX
	MOVSD	X2, (BX)
	UNPCKHPD X2, X2
	ADDQ	R12, BX
	MOVSD	X2, (BX)
	ADDQ	R12, BX
	MOVSD	X3, (BX)
	UNPCKHPD X3, X3
	ADDQ	R12, BX
	MOVSD	X3, (BX)

	ADDQ	$8, R11 // next output row
	DECQ	R8
	JNZ	rowloop
	RET


// func rowsAcc2(acc *float64, r int, w *float64, ldB int, x *float64, k int)
//
// The SSE2 inference row kernel, rowsAcc4's contract 2 rows per XMM:
// row blocks of 16, 8, 2 and 1 keep their accumulators in registers
// across the whole k loop, MULPD then ADDPD per term, skipping
// x[kk] == ±0 — each acc[j] is the ascending-k DotAcc chain, bit for
// bit. MOVUPD loads, since legacy-SSE memory operands must be aligned.
TEXT ·rowsAcc2(SB), NOSPLIT, $0-48
	MOVQ	acc+0(FP), DI
	MOVQ	r+8(FP), CX
	MOVQ	w+16(FP), SI
	MOVQ	ldB+24(FP), R8
	MOVQ	x+32(FP), DX
	MOVQ	k+40(FP), R9

block16:
	CMPQ	CX, $16
	JL	block8
	MOVUPD	(DI), X0
	MOVUPD	16(DI), X1
	MOVUPD	32(DI), X2
	MOVUPD	48(DI), X3
	MOVUPD	64(DI), X4
	MOVUPD	80(DI), X5
	MOVUPD	96(DI), X6
	MOVUPD	112(DI), X7
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k16:
	TESTQ	R11, R11
	JE	store16
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip16
	MOVSD	(R10), X12
	UNPCKLPD X12, X12
	MOVUPD	(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X0
	MOVUPD	16(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X1
	MOVUPD	32(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X2
	MOVUPD	48(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X3
	MOVUPD	64(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X4
	MOVUPD	80(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X5
	MOVUPD	96(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X6
	MOVUPD	112(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X7
skip16:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k16
store16:
	MOVUPD	X0, (DI)
	MOVUPD	X1, 16(DI)
	MOVUPD	X2, 32(DI)
	MOVUPD	X3, 48(DI)
	MOVUPD	X4, 64(DI)
	MOVUPD	X5, 80(DI)
	MOVUPD	X6, 96(DI)
	MOVUPD	X7, 112(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$16, CX
	JMP	block16

block8:
	CMPQ	CX, $8
	JL	block2
	MOVUPD	(DI), X0
	MOVUPD	16(DI), X1
	MOVUPD	32(DI), X2
	MOVUPD	48(DI), X3
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k8:
	TESTQ	R11, R11
	JE	store8
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip8
	MOVSD	(R10), X12
	UNPCKLPD X12, X12
	MOVUPD	(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X0
	MOVUPD	16(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X1
	MOVUPD	32(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X2
	MOVUPD	48(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X3
skip8:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k8
store8:
	MOVUPD	X0, (DI)
	MOVUPD	X1, 16(DI)
	MOVUPD	X2, 32(DI)
	MOVUPD	X3, 48(DI)
	ADDQ	$64, DI
	ADDQ	$64, SI
	SUBQ	$8, CX
	JMP	block8

block2:
	CMPQ	CX, $2
	JL	block1
	MOVUPD	(DI), X0
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k2:
	TESTQ	R11, R11
	JE	store2
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip2
	MOVSD	(R10), X12
	UNPCKLPD X12, X12
	MOVUPD	(R12), X13
	MULPD	X12, X13
	ADDPD	X13, X0
skip2:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k2
store2:
	MOVUPD	X0, (DI)
	ADDQ	$16, DI
	ADDQ	$16, SI
	SUBQ	$2, CX
	JMP	block2

block1:
	TESTQ	CX, CX
	JE	rowsdone
	MOVSD	(DI), X0
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k1:
	TESTQ	R11, R11
	JE	store1
	MOVQ	(R10), AX
	SHLQ	$1, AX
	JE	skip1
	MOVSD	(R12), X13
	MULSD	(R10), X13
	ADDSD	X13, X0
skip1:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k1
store1:
	MOVSD	X0, (DI)
	ADDQ	$8, DI
	ADDQ	$8, SI
	DECQ	CX
	JMP	block1

rowsdone:
	RET
