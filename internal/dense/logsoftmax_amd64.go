//go:build !purego

package dense

// The routines of logsoftmax_amd64.s: groups of four rows of cols columns,
// from the first, returning how many groups they completed. They take
// pointers, not slices; the wrappers below check the bounds first and never
// call them with cols or groups zero.

//go:noescape
func lanesForwardF64(dst *float64, z *float64, cols int, groups int) int

//go:noescape
func lanesBackwardF64(dst *float64, grad *float64, y *float64, cols int, groups int) int

// expLanes and logLanes run the lanes' exp and log on x in place and return
// the mask of lanes off math's fast path, for the tests.
//
//go:noescape
func expLanes(x *[4]float64) int

//go:noescape
func logLanes(x *[4]float64) int

// forwardF64AVX2 runs lanesForwardF64 over the whole groups of z. A dst
// shorter than them panics before any assembly runs.
func forwardF64AVX2(dst, z []float64, cols int) int {
	groups := len(z) / (4 * cols)
	if groups == 0 {
		return 0
	}
	_ = dst[4*groups*cols-1]
	return lanesForwardF64(&dst[0], &z[0], cols, groups)
}

// backwardF64AVX2 runs lanesBackwardF64 over the whole groups of y. A dst or
// grad shorter than them panics before any assembly runs.
func backwardF64AVX2(dst, grad, y []float64, cols int) int {
	groups := len(y) / (4 * cols)
	if groups == 0 {
		return 0
	}
	n := 4 * groups * cols
	_, _ = dst[n-1], grad[n-1]
	return lanesBackwardF64(&dst[0], &grad[0], &y[0], cols, groups)
}
