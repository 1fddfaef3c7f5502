package sparse

import (
	"fmt"
	"math"
	"sort"
)

// NormalizeSymmetric returns D^{-1/2} (A + I) D^{-1/2}, the symmetric
// normalization with self-loops from Kipf & Welling that the paper uses as
// its "modified adjacency matrix" (§III-B). D is the diagonal degree matrix
// of A + I. Vertices that remain isolated after adding the self-loop cannot
// occur (the self-loop guarantees degree ≥ 1).
//
// It is one O(nnz + n) merge pass over a's rows (whose columns ascend, as
// CSR promises): each row is copied with its diagonal entry incremented,
// or inserted in column order where a has none, and then scaled.
func NormalizeSymmetric(a *CSR) *CSR {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: NormalizeSymmetric needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	ai := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, a.NNZ()+n),
		Val:    make([]float64, 0, a.NNZ()+n),
	}
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		diag := lo + sort.SearchInts(a.ColIdx[lo:hi], i)
		ai.ColIdx = append(append(ai.ColIdx, a.ColIdx[lo:diag]...), i)
		ai.Val = append(ai.Val, a.Val[lo:diag]...)
		if diag < hi && a.ColIdx[diag] == i {
			ai.Val = append(ai.Val, a.Val[diag]+1)
			diag++
		} else {
			ai.Val = append(ai.Val, 1)
		}
		ai.ColIdx = append(ai.ColIdx, a.ColIdx[diag:hi]...)
		ai.Val = append(ai.Val, a.Val[diag:hi]...)
		ai.RowPtr[i+1] = len(ai.Val)
		// Modified degree: the row sum of A + I.
		var s float64
		for _, v := range ai.Val[ai.RowPtr[i]:] {
			s += v
		}
		dinv[i] = 1 / math.Sqrt(s)
	}
	for i := 0; i < n; i++ {
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			ai.Val[k] *= dinv[i] * dinv[ai.ColIdx[k]]
		}
	}
	return ai
}

// RowStochastic returns D^{-1} A: each row scaled to sum to one. Rows with
// no nonzeros are left as zero rows. This is the alternative "mean
// aggregator" normalization common in GraphSAGE-style models.
func RowStochastic(a *CSR) *CSR {
	out := a.Clone()
	for i := 0; i < out.Rows; i++ {
		var s float64
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			s += out.Val[k]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			out.Val[k] *= inv
		}
	}
	return out
}
