//go:build !purego

package dense

// The routines of axpy_amd64.s. They take pointers, not slices, so ten
// words cross into assembly instead of nineteen; the wrappers below keep
// the Go loops' length check (a short source panics before any assembly
// runs) and never call them with n == 0.

func hasAVX2() bool

//go:noescape
func axpyF64AVX2(dst *float64, n int, v float64, x *float64)

//go:noescape
func axpy4F64AVX2(dst *float64, n int, v0 float64, x0 *float64, v1 float64, x1 *float64, v2 float64, x2 *float64, v3 float64, x3 *float64)

//go:noescape
func axpyF32AVX2(dst *float32, n int, v float32, x *float32)

//go:noescape
func axpy4F32AVX2(dst *float32, n int, v0 float32, x0 *float32, v1 float32, x1 *float32, v2 float32, x2 *float32, v3 float32, x3 *float32)

func init() {
	if !hasAVX2() {
		return
	}
	kernelISA = "avx2"
	axpyF64 = Axpy[float64]{Row: axpyRowF64, Row4: axpy4RowF64}
	axpyF32 = Axpy[float32]{Row: axpyRowF32, Row4: axpy4RowF32}
	tileF64 = tileF64AVX2
	tileF32 = tileF32AVX2
}

func axpyRowF64(dst []float64, v float64, x []float64) {
	n := len(dst)
	x = x[:n]
	if n > 0 {
		axpyF64AVX2(&dst[0], n, v, &x[0])
	}
}

func axpy4RowF64(dst []float64, v0 float64, x0 []float64, v1 float64, x1 []float64, v2 float64, x2 []float64, v3 float64, x3 []float64) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	if n > 0 {
		axpy4F64AVX2(&dst[0], n, v0, &x0[0], v1, &x1[0], v2, &x2[0], v3, &x3[0])
	}
}

func axpyRowF32(dst []float32, v float32, x []float32) {
	n := len(dst)
	x = x[:n]
	if n > 0 {
		axpyF32AVX2(&dst[0], n, v, &x[0])
	}
}

func axpy4RowF32(dst []float32, v0 float32, x0 []float32, v1 float32, x1 []float32, v2 float32, x2 []float32, v3 float32, x3 []float32) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	if n > 0 {
		axpy4F32AVX2(&dst[0], n, v0, &x0[0], v1, &x1[0], v2, &x2[0], v3, &x3[0])
	}
}
