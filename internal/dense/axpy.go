package dense

// Axpy holds AxpyRow in the form this process runs it: Row has AxpyRow's
// contract, bit for bit. The kernels of this package and of internal/sparse
// run on the two register tiles (tile.go) instead, whose Go bodies are one
// AxpyRow per term.
type Axpy[T Elem] struct {
	Row func(dst []T, v T, x []T)
}

// The routines in use, chosen once at package init from what the CPU
// reports and never changed afterwards: the Go loop and the Go tile bodies
// unless a platform file (axpy_amd64.go) replaces them. There is no option:
// the two are bit-identical, so nothing but speed depends on which one runs.
var (
	kernelISA = "go"
	axpyF64   = Axpy[float64]{Row: AxpyRow[float64]}
	axpyF32   = Axpy[float32]{Row: AxpyRow[float32]}
	tileF64   = tileFunc[float64](gemmTile[float64])
	tileF32   = tileFunc[float32](gemmTile[float32])
	csrF64    = csrTileFunc[float64](csrTile[float64])
	csrF32    = csrTileFunc[float32](csrTile[float32])
	compact64 = compactFunc[float64](compactNZGo[float64])
	compact32 = compactFunc[float32](compactNZGo[float32])
)

// KernelISA names the instruction set the accumulation loops run on in this
// process: "avx2" (the assembly routines) or "go" (the portable loops — every
// GOARCH but amd64, an x86 without AVX2, and any build with -tags purego).
func KernelISA() string { return kernelISA }

// AxpyFor returns the accumulation routine for element type T: the
// process-wide choice for float64 and float32, the Go loop for any other
// Elem.
func AxpyFor[T Elem]() Axpy[T] {
	if k, ok := any(&axpyF64).(*Axpy[T]); ok {
		return *k
	}
	if k, ok := any(&axpyF32).(*Axpy[T]); ok {
		return *k
	}
	return Axpy[T]{Row: AxpyRow[T]}
}
