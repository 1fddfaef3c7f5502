package sparse

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// TransposePlan is a precomputed kernel plan for repeated aᵀ·x products
// with a fixed sparse a: a CSC-style view of a (column-sorted nonzeros with
// source-row indices) plus nnz-balanced per-worker split offsets.
//
// The plain SpMMT kernel scatters each stored row of a into dst and, under
// the parallel backend, re-derives its owner-computes partition with two
// binary searches per CSR row on every call. A plan pays that
// index work once: every later multiply is a sequential gather over the
// plan's arrays — no searches, unit-stride writes to dst — and the worker
// split is read off precomputed offsets.
//
// Bit-identity: the plan stores, for each output row c (column of a), its
// contributions ordered by source row i ascending — exactly the order the
// serial scatter loop (rows ascending, columns ascending within a row)
// accumulates them into dst row c, and exactly the order the binary-search
// parallel path visits them. Every output element therefore sees the same
// floating-point additions in the same order as both existing paths.
//
// A plan is immutable after construction and safe for concurrent use.
type TransposePlan struct {
	rows, cols int // dimensions of the source a (dst has cols rows)

	// colPtr/srcRow/val are the CSC arrays: contributions to output row c
	// occupy positions [colPtr[c], colPtr[c+1]), each scaling x row
	// srcRow[k] by val[k].
	colPtr []int
	srcRow []int
	val    []float64

	// split holds chunk boundaries over the output rows, balanced by
	// nonzero count for the worker pool width at build time; chunk ci owns
	// output rows [split[ci], split[ci+1]).
	split []int
}

// NewTransposePlan builds the plan for aᵀ products, splitting the output
// rows into one nnz-balanced chunk per worker of the shared pool. The plan
// costs O(nnz + cols) space — the same order as holding aᵀ explicitly.
func NewTransposePlan(a *CSR) *TransposePlan {
	return NewTransposePlanChunks(a, parallel.Workers())
}

// NewTransposePlanChunks is NewTransposePlan with an explicit target
// worker-chunk count (values < 1 select a single chunk), for tests and
// callers with a known concurrency.
func NewTransposePlanChunks(a *CSR, chunks int) *TransposePlan {
	p := &TransposePlan{
		rows:   a.Rows,
		cols:   a.Cols,
		colPtr: make([]int, a.Cols+1),
		srcRow: make([]int, a.NNZ()),
		val:    make([]float64, a.NNZ()),
	}
	// Counting pass, as in CSR.Transpose: bucket nonzeros by column,
	// preserving row order within each bucket.
	for _, c := range a.ColIdx {
		p.colPtr[c+1]++
	}
	for c := 0; c < a.Cols; c++ {
		p.colPtr[c+1] += p.colPtr[c]
	}
	next := append([]int(nil), p.colPtr[:a.Cols]...)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			pos := next[c]
			next[c]++
			p.srcRow[pos] = i
			p.val[pos] = a.Val[k]
		}
	}
	p.split = nnzSplits(p.colPtr, chunks)
	return p
}

// nnzSplits partitions the output rows of a colPtr-described matrix into at
// most chunks contiguous ranges of near-equal nonzero count.
func nnzSplits(colPtr []int, chunks int) []int {
	cols := len(colPtr) - 1
	if chunks < 1 {
		chunks = 1
	}
	if chunks > cols {
		chunks = cols
	}
	if chunks < 1 {
		chunks = 1 // 0-column matrix: one empty chunk
	}
	nnz := colPtr[cols]
	split := make([]int, chunks+1)
	c := 0
	for ci := 1; ci < chunks; ci++ {
		target := nnz * ci / chunks
		for c < cols && colPtr[c] < target {
			c++
		}
		split[ci] = c
	}
	split[chunks] = cols
	return split
}

// Rows returns the row count of the planned source matrix a.
func (p *TransposePlan) Rows() int { return p.rows }

// Cols returns the column count of the planned source matrix a.
func (p *TransposePlan) Cols() int { return p.cols }

// SpMMT computes dst = aᵀ * x for the planned a. dst must be
// a.Cols x x.Cols and is overwritten. The precomputed nnz-balanced chunks
// are dispatched across the pool; each output row is written by exactly
// one chunk and its gather order is the plan order, so the result matches
// the serial scatter bit-for-bit.
func (p *TransposePlan) SpMMT(dst, x *dense.Matrix) {
	p.check(dst, x, "TransposePlan.SpMMT")
	dst.Zero()
	work := 2 * int64(len(p.val)) * int64(x.Cols)
	if len(p.split) <= 2 || parallel.Inline(len(p.split)-1, work) {
		p.gatherCols(dst, x, 0, p.cols)
		return
	}
	parallel.Rows(len(p.split)-1, work, func(cLo, cHi int) {
		if a, b := p.split[cLo], p.split[cHi]; a < b {
			p.gatherCols(dst, x, a, b)
		}
	})
}

// gatherCols accumulates output rows [lo, hi): for each output row, a
// sequential sweep over its plan entries gathering the referenced x rows,
// four entries per pass (the four-source sweep keeps the per-element adds in
// entry order, so it is bit-identical to the one-entry loop).
func (p *TransposePlan) gatherCols(dst, x *dense.Matrix, lo, hi int) {
	ax := dense.AxpyFor[float64]()
	f := x.Cols
	for c := lo; c < hi; c++ {
		drow := dst.Data[c*f : (c+1)*f]
		axpyEntryRun(ax, drow, p.val, p.srcRow, x.Data, f, 0, p.colPtr[c], p.colPtr[c+1])
	}
}

func (p *TransposePlan) check(dst, x *dense.Matrix, op string) {
	if p.rows != x.Rows {
		panic(fmt.Sprintf("sparse: %s inner dimension mismatch: (%dx%d)ᵀ * %dx%d", op, p.rows, p.cols, x.Rows, x.Cols))
	}
	if dst.Rows != p.cols || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, p.cols, x.Cols))
	}
}
