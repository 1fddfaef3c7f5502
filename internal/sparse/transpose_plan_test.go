package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// TestTransposePlanMatchesSpMMTExactly: the plan's gather must be
// bit-identical to the scatter kernel, under both backends, across shapes
// including empty rows/columns and non-square matrices.
func TestTransposePlanMatchesSpMMTExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ rows, cols, f int }{
		{1, 1, 1}, {17, 23, 5}, {64, 64, 16}, {100, 30, 7}, {30, 100, 3},
	}
	for _, backend := range []parallel.Backend{parallel.BackendSerial, parallel.BackendParallel} {
		release := parallel.AcquireBackend(backend)
		for _, s := range shapes {
			for _, chunks := range []int{1, 3, 8} {
				a := randomCSR(rng, s.rows, s.cols, 0.15)
				x := randomMatrix(rng, s.rows, s.f)
				plan := NewTransposePlanChunks(a, chunks)
				if plan.Rows() != a.Rows || plan.Cols() != a.Cols {
					t.Fatalf("plan dims %dx%d, want %dx%d", plan.Rows(), plan.Cols(), a.Rows, a.Cols)
				}

				want := dense.New(a.Cols, s.f)
				SpMMT(want, a, x)
				got := dense.New(a.Cols, s.f)
				plan.SpMMT(got, x)
				if dense.MaxAbsDiff(want, got) != 0 {
					t.Fatalf("backend=%v shape=%v chunks=%d: plan SpMMT differs from scatter SpMMT",
						backend, s, chunks)
				}

				// A dirty destination is overwritten, not accumulated into.
				dirty := randomMatrix(rand.New(rand.NewSource(7)), a.Cols, s.f)
				plan.SpMMT(dirty, x)
				if dense.MaxAbsDiff(want, dirty) != 0 {
					t.Fatalf("backend=%v shape=%v chunks=%d: plan SpMMT kept part of a dirty dst", backend, s, chunks)
				}
			}
		}
		release()
	}
}

// TestTransposePlanSplitsCoverAndBalance: chunk boundaries must tile the
// output rows exactly and never split below zero nnz.
func TestTransposePlanSplitsCoverAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomCSR(rng, 200, 150, 0.1)
	for _, chunks := range []int{1, 2, 7, 150, 400} {
		p := NewTransposePlanChunks(a, chunks)
		s := p.split
		if s[0] != 0 || s[len(s)-1] != a.Cols {
			t.Fatalf("chunks=%d: splits %v do not cover [0,%d]", chunks, s, a.Cols)
		}
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				t.Fatalf("chunks=%d: splits %v decrease", chunks, s)
			}
		}
		if len(s)-1 > a.Cols {
			t.Fatalf("chunks=%d: more chunks (%d) than output rows (%d)", chunks, len(s)-1, a.Cols)
		}
	}
}

// TestTransposePlanSteadyStateAllocs: a planned multiply is allocation-free
// under the serial backend — the point of precomputing the plan.
func TestTransposePlanSteadyStateAllocs(t *testing.T) {
	release := parallel.AcquireBackend(parallel.BackendSerial)
	defer release()
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 128, 96, 0.1)
	x := randomMatrix(rng, 128, 8)
	dst := dense.New(96, 8)
	plan := NewTransposePlan(a)
	plan.SpMMT(dst, x)
	if avg := testing.AllocsPerRun(10, func() { plan.SpMMT(dst, x) }); avg != 0 {
		t.Fatalf("planned SpMMT allocates %.1f times per call, want 0", avg)
	}
}

// TestBlockedSpMMMatchesExactly: the feature-blocked SpMM path (wide dense
// operands) must be bit-identical to the narrow unblocked loop.
func TestBlockedSpMMMatchesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomCSR(rng, 60, 60, 0.1)
	// f > spmmFeatureBlock forces the blocked path; compute the reference
	// with the unblocked loop directly.
	f := spmmFeatureBlock + 37
	x := randomMatrix(rng, 60, f)
	blocked := dense.New(60, f)
	SpMM(blocked, a, x)

	unblocked := dense.New(60, f)
	for i := 0; i < a.Rows; i++ {
		drow := unblocked.Data[i*f : (i+1)*f]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			v := a.Val[k]
			xrow := x.Data[a.ColIdx[k]*f : (a.ColIdx[k]+1)*f]
			for j, xv := range xrow {
				drow[j] += v * xv
			}
		}
	}
	if dense.MaxAbsDiff(blocked, unblocked) != 0 {
		t.Fatalf("feature-blocked SpMM differs from the unblocked loop")
	}
}
