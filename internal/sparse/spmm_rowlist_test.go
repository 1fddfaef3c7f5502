package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/dense"
)

// splitRowsEvenOdd partitions [0, n) into two disjoint ascending lists the
// way the overlap trainers split interior/frontier rows.
func splitRowsEvenOdd(n int) (evens, odds []int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			evens = append(evens, i)
		} else {
			odds = append(odds, i)
		}
	}
	return evens, odds
}

// TestSpMMAddRowListSplitsBitIdentically: running two disjoint row lists in
// either order must reproduce the full SpMMAdd bit for bit — the property
// the interior/frontier overlap split relies on.
func TestSpMMAddRowListSplitsBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, s := range []struct{ rows, cols, f int }{
		{1, 1, 1}, {17, 23, 5}, {128, 96, 33}, {200, 150, 300},
	} {
		a := randomCSR(rng, s.rows, s.cols, 0.08)
		x := randomMatrix(rng, s.cols, s.f)
		want := dense.New(s.rows, s.f)
		SpMMAdd(want, a, x)

		evens, odds := splitRowsEvenOdd(s.rows)
		for _, order := range [][][]int{{evens, odds}, {odds, evens}} {
			got := dense.New(s.rows, s.f)
			for _, rows := range order {
				SpMMAddRowList(got, a, x, rows)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%dx%d f=%d: element %d differs: %v vs %v",
						s.rows, s.cols, s.f, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSpMMAddRowListTouchesOnlyListedRows: unlisted rows keep their prior
// contents exactly.
func TestSpMMAddRowListTouchesOnlyListedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := randomCSR(rng, 40, 30, 0.2)
	x := randomMatrix(rng, 30, 7)
	init := randomMatrix(rng, 40, 7)
	got := init.Clone()
	evens, _ := splitRowsEvenOdd(40)
	SpMMAddRowList(got, a, x, evens)
	for _, i := range []int{1, 7, 39} {
		for j := 0; j < 7; j++ {
			if got.At(i, j) != init.At(i, j) {
				t.Fatalf("unlisted row %d was modified", i)
			}
		}
	}
	if len(evens) > 0 && got.At(0, 0) == init.At(0, 0) && a.RowPtr[1] > a.RowPtr[0] {
		t.Fatal("listed row 0 was not updated")
	}
}

// TestSpMMAddRowListParallelBitIdentical: seven workers must split the row
// list without changing a single bit.
func TestSpMMAddRowListParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := randomCSR(rng, 300, 250, 0.05)
	x := randomMatrix(rng, 250, 40)
	evens, _ := splitRowsEvenOdd(300)
	withWorkers(t, func() *dense.Matrix {
		out := dense.New(300, 40)
		SpMMAddRowList(out, a, x, evens)
		return out
	}, func(serial, par *dense.Matrix) {
		requireBitIdentical(t, serial, par)
	})
}

// TestRowListNNZ checks the charge basis against RowPtr arithmetic.
func TestRowListNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := randomCSR(rng, 50, 50, 0.1)
	evens, odds := splitRowsEvenOdd(50)
	if got := RowListNNZ(a, evens) + RowListNNZ(a, odds); got != int64(a.NNZ()) {
		t.Fatalf("row-list nnz split %d != total %d", got, a.NNZ())
	}
	if RowListNNZ(a, nil) != 0 {
		t.Fatal("empty list must have zero nnz")
	}
}
