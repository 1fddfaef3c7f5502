package dense

// Axpy is the pair of accumulation routines the SpMM kernels of
// internal/sparse bottom out in, one gathered source row at a time or four:
// Row has AxpyRow's contract and Row4 Axpy4Row's, bit for bit. A kernel
// resolves the pair once per entry with AxpyFor and passes it down to its
// inner loops, so the choice between the vector routines and the Go loops
// costs nothing per call. The GEMM family has its own entry beside it, the
// register tile (tile.go), whose sources are the rows of one dense operand.
type Axpy[T Elem] struct {
	Row  func(dst []T, v T, x []T)
	Row4 func(dst []T, v0 T, x0 []T, v1 T, x1 []T, v2 T, x2 []T, v3 T, x3 []T)
}

// The routines in use, chosen once at package init from what the CPU
// reports and never changed afterwards: the Go loops and the Go tile body
// unless a platform file (axpy_amd64.go) replaces them. There is no option:
// the two are bit-identical, so nothing but speed depends on which one runs.
var (
	kernelISA = "go"
	axpyF64   = Axpy[float64]{Row: AxpyRow[float64], Row4: Axpy4Row[float64]}
	axpyF32   = Axpy[float32]{Row: AxpyRow[float32], Row4: Axpy4Row[float32]}
	tileF64   = tileFunc[float64](gemmTile[float64])
	tileF32   = tileFunc[float32](gemmTile[float32])
)

// KernelISA names the instruction set the accumulation loops run on in this
// process: "avx2" (the assembly routines) or "go" (the portable loops — every
// GOARCH but amd64, an x86 without AVX2, and any build with -tags purego).
func KernelISA() string { return kernelISA }

// AxpyFor returns the accumulation routines for element type T: the
// process-wide choice for float64 and float32, the Go loops for any other
// Elem.
func AxpyFor[T Elem]() Axpy[T] {
	if k, ok := any(&axpyF64).(*Axpy[T]); ok {
		return *k
	}
	if k, ok := any(&axpyF32).(*Axpy[T]); ok {
		return *k
	}
	return Axpy[T]{Row: AxpyRow[T], Row4: Axpy4Row[T]}
}
