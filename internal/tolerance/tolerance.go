// Package tolerance provides the shared comparison helper for
// tolerance-validated kernel variants: paths that are numerically
// equivalent but not bit-identical to the float64 CSR reference (elastic
// resumes across a repartition, the direct-formula gradient checks).
// Bit-identical paths don't use this package — they compare with exact
// equality.
package tolerance

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dense"
)

// Close reports whether got matches want element-wise within maxAbs
// absolute OR maxRel relative tolerance (an element passes if either bound
// holds, the standard two-sided criterion: absolute for values near zero,
// relative for large magnitudes). On mismatch the returned error describes
// the worst element — position, both values, and both error measures — so
// a tolerance bump is never chosen blind. Non-runtime callers usually want
// AssertClose; Close exists for runtime verdicts (the fault experiment's
// elastic-resume check) that have no testing.TB.
func Close(name string, got, want *dense.Matrix, maxAbs, maxRel float64) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	worstI, worstAbs, worstRel := -1, 0.0, 0.0
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		// Non-finite values satisfy no tolerance: they must match exactly
		// (same NaN-ness or the same infinity). They also cannot go
		// through the worst-element tracking — a NaN delta fails every
		// comparison, including `abs > worstAbs`, which used to let a NaN
		// mismatch slip through silently.
		if math.IsNaN(g) || math.IsNaN(w) || math.IsInf(g, 0) || math.IsInf(w, 0) {
			if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
				continue
			}
			r, c := i/want.Cols, i%want.Cols
			return fmt.Errorf("%s: element (%d,%d): got %v, want %v (non-finite values must match exactly)",
				name, r, c, got.Data[i], want.Data[i])
		}
		abs := math.Abs(g - w)
		rel := 0.0
		if w != 0 {
			rel = abs / math.Abs(w)
		} else if abs > 0 {
			rel = math.Inf(1)
		}
		if abs <= maxAbs || rel <= maxRel {
			continue
		}
		if abs > worstAbs {
			worstI, worstAbs, worstRel = i, abs, rel
		}
	}
	if worstI >= 0 {
		r, c := worstI/want.Cols, worstI%want.Cols
		return fmt.Errorf("%s: worst element (%d,%d): got %v, want %v (|Δ| = %g > %g, rel = %g > %g)",
			name, r, c, got.Data[worstI], want.Data[worstI], worstAbs, maxAbs, worstRel, maxRel)
	}
	return nil
}

// CloseSlice is Close for float64 slices (loss curves, accuracy traces).
func CloseSlice(name string, got, want []float64, maxAbs, maxRel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	gm := &dense.Matrix{Rows: 1, Cols: len(got), Data: got}
	wm := &dense.Matrix{Rows: 1, Cols: len(want), Data: want}
	return Close(name, gm, wm, maxAbs, maxRel)
}

// AssertClose is Close as a test assertion: it fails t with the worst
// element's report unless got matches want within the bounds.
func AssertClose(t testing.TB, name string, got, want *dense.Matrix, maxAbs, maxRel float64) {
	t.Helper()
	if err := Close(name, got, want, maxAbs, maxRel); err != nil {
		t.Fatalf("%v", err)
	}
}

// AssertCloseSlice is AssertClose for float64 slices (loss curves,
// accuracy traces).
func AssertCloseSlice(t testing.TB, name string, got, want []float64, maxAbs, maxRel float64) {
	t.Helper()
	if err := CloseSlice(name, got, want, maxAbs, maxRel); err != nil {
		t.Fatalf("%v", err)
	}
}
