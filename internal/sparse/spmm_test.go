package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

// skewedCSR builds a square power-law matrix the way the R-MAT analogs come
// out: row i holds about n/(i+1) nonzeros, so the first few rows carry most
// of the matrix and the tail is nearly (every seventh row: exactly) empty.
func skewedCSR(rng *rand.Rand, n int) *CSR {
	var entries []Coord
	for i := 0; i < n; i++ {
		if i%7 == 6 {
			continue
		}
		for j := 0; j < n; j++ {
			if rng.Intn(i+1) == 0 {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(n, n, entries)
}

// TestChunkStartCoverAndBalance: the nonzero-balanced worker split of
// SpMMAdd. For every chunk count the starts are monotone, begin at row 0
// and end at the row count — so the chunks tile the rows, trailing empty
// rows included — and every chunk's nonzeros are within one row's worth of
// nnz/chunks, where an even row split of the skewed matrix is off by most
// of the matrix.
func TestChunkStartCoverAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	emptyRows := NewCSR(40, 9, []Coord{{Row: 3, Col: 1, Val: 1}, {Row: 3, Col: 2, Val: 1}, {Row: 17, Col: 0, Val: 1}, {Row: 30, Col: 8, Val: 1}})
	matrices := map[string]*CSR{
		"skewed":     skewedCSR(rng, 300),
		"uniform":    randomCSR(rng, 200, 150, 0.1),
		"empty-rows": emptyRows,
		"no-entries": NewCSR(12, 5, nil),
		"no-rows":    NewCSR(0, 5, nil),
	}
	for name, a := range matrices {
		maxRow := 0
		for i := 0; i < a.Rows; i++ {
			maxRow = max(maxRow, a.RowPtr[i+1]-a.RowPtr[i])
		}
		for _, chunks := range []int{1, 2, 3, 7, 8, 64} {
			t.Run(fmt.Sprintf("%s/chunks=%d", name, chunks), func(t *testing.T) {
				if lo, hi := chunkStart(a.RowPtr, 0, chunks), chunkStart(a.RowPtr, chunks, chunks); lo != 0 || hi != a.Rows {
					t.Fatalf("chunks cover rows [%d, %d), want [0, %d)", lo, hi, a.Rows)
				}
				for c := 0; c < chunks; c++ {
					lo, hi := chunkStart(a.RowPtr, c, chunks), chunkStart(a.RowPtr, c+1, chunks)
					if lo > hi {
						t.Fatalf("chunk %d is rows [%d, %d): starts decrease", c, lo, hi)
					}
					nnz, even := a.RowPtr[hi]-a.RowPtr[lo], a.NNZ()/chunks
					if nnz > even+maxRow+1 || nnz < even-maxRow-1 {
						t.Fatalf("chunk %d holds %d nonzeros, want %d ± one row (≤ %d)", c, nnz, even, maxRow)
					}
				}
			})
		}
	}
	// The premise: an even row split does leave the skewed matrix lopsided.
	a := matrices["skewed"]
	if first := a.RowPtr[a.Rows/2]; 10*first < 7*a.NNZ() {
		t.Fatalf("skewed matrix holds only %d of %d nonzeros in its first half: the balance check proves nothing", first, a.NNZ())
	}
}

// TestTransposePlanIsSpMMOverTranspose: what is left of the plan is
// SpMM(a.Transpose()) — bit for bit, on one worker and on seven, across shapes
// including empty rows and columns and non-square matrices, and overwriting
// a dirty destination.
func TestTransposePlanIsSpMMOverTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ rows, cols, f int }{
		{1, 1, 1}, {17, 23, 5}, {64, 64, 16}, {100, 30, 7}, {30, 100, 3}, {400, 300, 48},
	}
	for _, s := range shapes {
		a := randomCSR(rng, s.rows, s.cols, 0.15)
		x := randomMatrix(rng, s.rows, s.f)
		want := dense.New(a.Cols, s.f)
		SpMM(want, a.Transpose(), x)
		plan := NewTransposePlan(a)
		withWorkers(t, func() *dense.Matrix {
			got := randomMatrix(rand.New(rand.NewSource(7)), a.Cols, s.f) // dirty
			plan.SpMMT(got, x)
			return got
		}, func(serial, par *dense.Matrix) {
			requireBitIdentical(t, want, serial)
			requireBitIdentical(t, want, par)
		})
	}
}

// TestBlockedSpMMMatchesExactly: SpMM over a dense operand many column
// strips wide, the last one masked, must be bit-identical to the plain loop
// of one multiply-add per entry and column.
func TestBlockedSpMMMatchesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomCSR(rng, 60, 60, 0.1)
	f := 256 + 37
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
		t.Fatalf("SpMM over %d columns differs from the plain loop", f)
	}
}
