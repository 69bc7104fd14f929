//go:build !amd64 || purego

package ml

// haveGemm8 is false without the assembly microkernels; the dispatch
// table offers only the "scalar" family and MulLanes uses the portable
// 4-lane Go kernel, which produces identical results.
const haveGemm8 = false

// The CPUID probe compiles out with the kernels.
const (
	cpuHasAVX2 = false
	cpuHasFMA  = false
)

// The stubs below are unreachable when haveGemm8 is false: dispatch
// never constructs a family that calls them.

func gemm8(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int) {
	panic("ml: gemm8 called without assembly support")
}

func gemm16(w *float64, rows, k int, xt *float64, strideB int, out *float64, outStrideB int) {
	panic("ml: gemm16 called without assembly support")
}

func axpy4(y, x *float64, n int, a float64) {
	panic("ml: axpy4 called without assembly support")
}

func rowsAcc4(acc *float64, r int, w *float64, ldB int, x *float64, k int) {
	panic("ml: rowsAcc4 called without assembly support")
}

func rowsAcc2(acc *float64, r int, w *float64, ldB int, x *float64, k int) {
	panic("ml: rowsAcc2 called without assembly support")
}

func sigmoid4(dst, src *float64) (ok uint8) {
	panic("ml: sigmoid4 called without assembly support")
}

func tanh4(dst, src *float64) {
	panic("ml: tanh4 called without assembly support")
}
