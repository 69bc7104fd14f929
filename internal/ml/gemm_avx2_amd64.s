// AVX2 lane-batched GEMM microkernel, elementwise axpy, and the
// inference row kernel rowsAcc4 (vectorized across rows). Like the
// SSE2 gemm8, gemm16 vectorizes across LANES: each of the 16 lanes keeps
// its own accumulator component that sums w[k]*x[k] in ascending-k
// order with a separate VMULPD and VADDPD per term — deliberately NOT
// VFMADD, whose single rounding would diverge from the scalar Dot chain
// (two roundings per term). Two weight rows are blocked per pass so 8
// YMM accumulators stay live across the k loop, amortizing each tile
// load over two rows.
//
// Register budget (gemm16): Y0-Y7 accumulators, Y8-Y11 tile slices,
// Y12/Y13 broadcast weights, Y14 mul temp. Y15 is left untouched (the
// Go internal ABI reserves X15 as a zero register; hand-written ABI0
// code may clobber it, but avoiding it entirely is cheap). R14/R15 are
// reserved by the Go register ABI, so cursors use BX/DX/R13.
//
// VEX encodings throughout; VZEROUPPER before every RET to avoid
// SSE/AVX transition stalls in the scalar code that follows.

//go:build !purego

#include "textflag.h"

// func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int)
TEXT ·gemm16(SB), NOSPLIT, $0-56
	MOVQ	w+0(FP), SI
	MOVQ	rows+8(FP), R8
	MOVQ	k+16(FP), R9
	MOVQ	xt+24(FP), DI
	MOVQ	strideB+32(FP), R10
	MOVQ	out+40(FP), R11
	MOVQ	outStrideB+48(FP), R12

	MOVQ	R9, AX  // AX = k*8 = byte length of one weight row
	SHLQ	$3, AX

pairloop:
	CMPQ	R8, $2
	JL	rowtail

	// Two rows r and r+1: accumulators row r in Y0-Y3 (lanes 0-15),
	// row r+1 in Y4-Y7.
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	MOVQ	DI, DX          // xt cursor (k = 0)
	MOVQ	R9, CX          // k countdown
	LEAQ	(SI)(AX*1), R13 // weight cursor for row r+1

kloop2:
	VBROADCASTSD	(SI), Y12
	VBROADCASTSD	(R13), Y13
	// one k-slice of the tile: lanes 0..15
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	// multiply THEN add — two rounding steps, matching scalar s += w*x
	VMULPD	Y8, Y12, Y14
	VADDPD	Y14, Y0, Y0
	VMULPD	Y9, Y12, Y14
	VADDPD	Y14, Y1, Y1
	VMULPD	Y10, Y12, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y11, Y12, Y14
	VADDPD	Y14, Y3, Y3
	VMULPD	Y8, Y13, Y14
	VADDPD	Y14, Y4, Y4
	VMULPD	Y9, Y13, Y14
	VADDPD	Y14, Y5, Y5
	VMULPD	Y10, Y13, Y14
	VADDPD	Y14, Y6, Y6
	VMULPD	Y11, Y13, Y14
	VADDPD	Y14, Y7, Y7
	ADDQ	$8, SI
	ADDQ	$8, R13
	ADDQ	R10, DX
	DECQ	CX
	JNZ	kloop2

	// Scatter: lane L of row r goes to out + L*outStrideB + 0, row r+1
	// to out + L*outStrideB + 8. Walk lanes with BX, four per acc pair.
	MOVQ	R11, BX
	VMOVSD	X0, (BX)
	VMOVSD	X4, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	VMOVHPD	X4, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y0, X0
	VEXTRACTF128	$1, Y4, X4
	VMOVSD	X0, (BX)
	VMOVSD	X4, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	VMOVHPD	X4, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X1, (BX)
	VMOVSD	X5, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	VMOVHPD	X5, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y1, X1
	VEXTRACTF128	$1, Y5, X5
	VMOVSD	X1, (BX)
	VMOVSD	X5, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	VMOVHPD	X5, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X2, (BX)
	VMOVSD	X6, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	VMOVHPD	X6, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y2, X2
	VEXTRACTF128	$1, Y6, X6
	VMOVSD	X2, (BX)
	VMOVSD	X6, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	VMOVHPD	X6, 8(BX)
	ADDQ	R12, BX

	VMOVSD	X3, (BX)
	VMOVSD	X7, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	VMOVHPD	X7, 8(BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y3, X3
	VEXTRACTF128	$1, Y7, X7
	VMOVSD	X3, (BX)
	VMOVSD	X7, 8(BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	VMOVHPD	X7, 8(BX)

	MOVQ	R13, SI  // now points at row r+2
	ADDQ	$16, R11 // out advances two rows (8 bytes each)
	SUBQ	$2, R8
	JMP	pairloop

rowtail:
	TESTQ	R8, R8
	JE	done

	// Odd final row: accumulators Y0-Y3 only.
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	DI, DX
	MOVQ	R9, CX

kloop1:
	VBROADCASTSD	(SI), Y12
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	VMULPD	Y8, Y12, Y14
	VADDPD	Y14, Y0, Y0
	VMULPD	Y9, Y12, Y14
	VADDPD	Y14, Y1, Y1
	VMULPD	Y10, Y12, Y14
	VADDPD	Y14, Y2, Y2
	VMULPD	Y11, Y12, Y14
	VADDPD	Y14, Y3, Y3
	ADDQ	$8, SI
	ADDQ	R10, DX
	DECQ	CX
	JNZ	kloop1

	MOVQ	R11, BX
	VMOVSD	X0, (BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y0, X0
	VMOVSD	X0, (BX)
	ADDQ	R12, BX
	VMOVHPD	X0, (BX)
	ADDQ	R12, BX

	VMOVSD	X1, (BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y1, X1
	VMOVSD	X1, (BX)
	ADDQ	R12, BX
	VMOVHPD	X1, (BX)
	ADDQ	R12, BX

	VMOVSD	X2, (BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y2, X2
	VMOVSD	X2, (BX)
	ADDQ	R12, BX
	VMOVHPD	X2, (BX)
	ADDQ	R12, BX

	VMOVSD	X3, (BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)
	ADDQ	R12, BX
	VEXTRACTF128	$1, Y3, X3
	VMOVSD	X3, (BX)
	ADDQ	R12, BX
	VMOVHPD	X3, (BX)

done:
	VZEROUPPER
	RET

// func axpy4(y, x *float64, n int, a float64)
//
// y[i] += a * x[i] elementwise: exactly the scalar expression per
// element (a*x[i] rounds, then the add rounds — no FMA), so any split
// into vector lanes is bitwise identical to the Go loop.
TEXT ·axpy4(SB), NOSPLIT, $0-32
	MOVQ	y+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	a+24(FP), Y0

loop8:
	CMPQ	CX, $8
	JL	tail4
	VMOVUPD	(SI), Y1
	VMOVUPD	32(SI), Y2
	VMULPD	Y1, Y0, Y3
	VMULPD	Y2, Y0, Y4
	VMOVUPD	(DI), Y1
	VMOVUPD	32(DI), Y2
	VADDPD	Y3, Y1, Y1
	VADDPD	Y4, Y2, Y2
	VMOVUPD	Y1, (DI)
	VMOVUPD	Y2, 32(DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JMP	loop8

tail4:
	CMPQ	CX, $4
	JL	tail1
	VMOVUPD	(SI), Y1
	VMULPD	Y1, Y0, Y3
	VMOVUPD	(DI), Y1
	VADDPD	Y3, Y1, Y1
	VMOVUPD	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX

tail1:
	TESTQ	CX, CX
	JE	done
	VMOVSD	(SI), X1
	VMULSD	X1, X0, X3
	VMOVSD	(DI), X1
	VADDSD	X3, X1, X1
	VMOVSD	X1, (DI)
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JMP	tail1

done:
	VZEROUPPER
	RET

// func rowsAcc4(acc *float64, r int, w *float64, ldB int, x *float64, k int)
//
// The register-blocked inference row kernel (rows.go): for j in [0, r)
//
//	acc[j] += w[kk*ldB/8 + j] * x[kk]   for kk = 0, 1, ..., k-1
//
// skipping x[kk] == ±0. Rows go in blocks of 32, 16, 4 and 1, each
// block's accumulators held in registers across the whole k loop:
// VMULPD then VADDPD per term, one ascending-k chain per row, so every
// element is bitwise equal to the scalar DotAcc chain.
TEXT ·rowsAcc4(SB), NOSPLIT, $0-48
	MOVQ	acc+0(FP), DI
	MOVQ	r+8(FP), CX
	MOVQ	w+16(FP), SI
	MOVQ	ldB+24(FP), R8
	MOVQ	x+32(FP), DX
	MOVQ	k+40(FP), R9

block32:
	CMPQ	CX, $32
	JL	block16
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMOVUPD	128(DI), Y4
	VMOVUPD	160(DI), Y5
	VMOVUPD	192(DI), Y6
	VMOVUPD	224(DI), Y7
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k32:
	TESTQ	R11, R11
	JE	store32
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip32
	VBROADCASTSD	(R10), Y12
	VMULPD	(R12), Y12, Y13
	VADDPD	Y13, Y0, Y0
	VMULPD	32(R12), Y12, Y13
	VADDPD	Y13, Y1, Y1
	VMULPD	64(R12), Y12, Y13
	VADDPD	Y13, Y2, Y2
	VMULPD	96(R12), Y12, Y13
	VADDPD	Y13, Y3, Y3
	VMULPD	128(R12), Y12, Y13
	VADDPD	Y13, Y4, Y4
	VMULPD	160(R12), Y12, Y13
	VADDPD	Y13, Y5, Y5
	VMULPD	192(R12), Y12, Y13
	VADDPD	Y13, Y6, Y6
	VMULPD	224(R12), Y12, Y13
	VADDPD	Y13, Y7, Y7
skip32:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k32
store32:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, 128(DI)
	VMOVUPD	Y5, 160(DI)
	VMOVUPD	Y6, 192(DI)
	VMOVUPD	Y7, 224(DI)
	ADDQ	$256, DI
	ADDQ	$256, SI
	SUBQ	$32, CX
	JMP	block32

block16:
	CMPQ	CX, $16
	JL	block4
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k16:
	TESTQ	R11, R11
	JE	store16
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip16
	VBROADCASTSD	(R10), Y12
	VMULPD	(R12), Y12, Y13
	VADDPD	Y13, Y0, Y0
	VMULPD	32(R12), Y12, Y13
	VADDPD	Y13, Y1, Y1
	VMULPD	64(R12), Y12, Y13
	VADDPD	Y13, Y2, Y2
	VMULPD	96(R12), Y12, Y13
	VADDPD	Y13, Y3, Y3
skip16:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k16
store16:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$16, CX
	JMP	block16

block4:
	CMPQ	CX, $4
	JL	block1
	VMOVUPD	(DI), Y0
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k4:
	TESTQ	R11, R11
	JE	store4
	MOVQ	(R10), AX
	SHLQ	$1, AX // drop the sign: zero for both +0 and -0
	JE	skip4
	VBROADCASTSD	(R10), Y12
	VMULPD	(R12), Y12, Y13
	VADDPD	Y13, Y0, Y0
skip4:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k4
store4:
	VMOVUPD	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$4, CX
	JMP	block4

block1:
	TESTQ	CX, CX
	JE	rowsdone
	VMOVSD	(DI), X0
	MOVQ	DX, R10
	MOVQ	SI, R12
	MOVQ	R9, R11
k1:
	TESTQ	R11, R11
	JE	store1
	MOVQ	(R10), AX
	SHLQ	$1, AX
	JE	skip1
	VMOVSD	(R10), X12
	VMOVSD	(R12), X13
	VMULSD	X12, X13, X13
	VADDSD	X13, X0, X0
skip1:
	ADDQ	$8, R10
	ADDQ	R8, R12
	DECQ	R11
	JMP	k1
store1:
	VMOVSD	X0, (DI)
	ADDQ	$8, DI
	ADDQ	$8, SI
	DECQ	CX
	JMP	block1

rowsdone:
	VZEROUPPER
	RET
