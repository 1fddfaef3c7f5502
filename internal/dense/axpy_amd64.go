//go:build !purego

package dense

// The routines of axpy_amd64.s. They take pointers, not slices, so four
// words cross into assembly instead of seven; the wrappers below keep the
// Go loop's length check (a short source panics before any assembly runs)
// and never call them with n == 0.

func hasAVX2() bool

//go:noescape
func axpyF64AVX2(dst *float64, n int, v float64, x *float64)

//go:noescape
func axpyF32AVX2(dst *float32, n int, v float32, x *float32)

func init() {
	if !hasAVX2() {
		return
	}
	kernelISA = "avx2"
	axpyF64 = Axpy[float64]{Row: axpyRowF64}
	axpyF32 = Axpy[float32]{Row: axpyRowF32}
	tileF64 = tileF64AVX2
	tileF32 = tileF32AVX2
	csrF64 = csrTileF64AVX2
	csrF32 = csrTileF32AVX2
	compact64 = compactNZF64AVX2
	compact32 = compactNZF32AVX2
}

func axpyRowF64(dst []float64, v float64, x []float64) {
	n := len(dst)
	x = x[:n]
	if n > 0 {
		axpyF64AVX2(&dst[0], n, v, &x[0])
	}
}

func axpyRowF32(dst []float32, v float32, x []float32) {
	n := len(dst)
	x = x[:n]
	if n > 0 {
		axpyF32AVX2(&dst[0], n, v, &x[0])
	}
}
