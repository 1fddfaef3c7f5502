package sparse

import (
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// SpMM computes dst = a * x where a is sparse and x is dense (the SpMM
// kernel the paper identifies as the dominant GNN training cost). dst must
// be a.Rows x x.Cols and is overwritten.
//
// Like every kernel in this package, SpMM row-partitions large products
// across the shared worker pool (parallel.SetWorkers; one worker runs it
// inline), with each output row owned by exactly one worker so the result
// is bit-identical at every worker count.
func SpMM(dst *dense.Matrix, a *CSR, x *dense.Matrix) {
	checkSpMM(dst, a, x, "SpMM")
	spMM(dst, a, x, false)
}

// SpMMAdd computes dst += a * x. This is the accumulating form used inside
// SUMMA iterations where partial products for different k-blocks sum into
// the same output tile.
//
// The parallel split is by nonzeros, not by rows: the pool's workers take
// contiguous row ranges of near-equal nonzero count (chunkStart), read off
// the prefix sum RowPtr already is. A power-law adjacency in generator or
// degree order keeps most of its nonzeros in a fraction of its rows — 72 %
// in the first half of the 8 192-vertex R-MAT analog — so an even row split
// leaves one worker with most of the product. Rows stay whole, so each
// output row is still written by one worker in nonzero order.
func SpMMAdd(dst *dense.Matrix, a *CSR, x *dense.Matrix) {
	checkSpMM(dst, a, x, "SpMMAdd")
	spMM(dst, a, x, true)
}

func spMM(dst *dense.Matrix, a *CSR, x *dense.Matrix, load bool) {
	chunks := min(parallel.Workers(), a.Rows)
	spMMJobs.Run(chunks, SpMMFlops(a, x.Cols), spMMJob{dst, a, x, load, chunks})
}

// spMMJob is the product dst (+)= a·x over chunks near-equal shares of a's
// nonzeros.
type spMMJob struct {
	dst    *dense.Matrix
	a      *CSR
	x      *dense.Matrix
	load   bool
	chunks int
}

var spMMJobs parallel.Dispatcher[spMMJob, *spMMJob]

// Rows computes the rows of chunks [lo, hi).
func (j *spMMJob) Rows(lo, hi int) {
	spMMRows(j.dst, j.a, j.x, chunkStart(j.a.RowPtr, lo, j.chunks), chunkStart(j.a.RowPtr, hi, j.chunks), j.load)
}

// chunkStart returns the first row of chunk c when the rows of a matrix
// with prefix sums rowPtr are cut into chunks contiguous ranges of
// near-equal nonzero count: the first row at or past the c/chunks quantile
// of the nonzeros, found by binary search. Chunk c is [chunkStart(c),
// chunkStart(c+1)); the starts are monotone in c, 0 at c = 0 and the row
// count at c = chunks, and a chunk's nonzeros differ from nnz/chunks by
// less than its boundary rows hold.
func chunkStart(rowPtr []int, c, chunks int) int {
	rows := len(rowPtr) - 1
	if c >= chunks {
		return rows // past the last quantile, trailing empty rows included
	}
	target := rowPtr[rows] * c / chunks
	return sort.SearchInts(rowPtr[:rows], target)
}

// spMMRows computes rows [lo, hi) of dst (+)= a*x on the CSR tile, a column
// strip of x at a time over the whole range: each output element receives
// its row's entries in nonzero order — the one-AxpyRow-per-entry loop
// (RefSpMM), bit for bit, whatever the split.
func spMMRows(dst *dense.Matrix, a *CSR, x *dense.Matrix, lo, hi int, load bool) {
	f := x.Cols
	dense.SpMMRows(dst.Data[lo*f:], f, a.RowPtr[lo:hi+1], a.ColIdx, a.Val, x.Data, f, f, load)
}

// SpMMAddRowList computes dst[i] += (a*x)[i] for exactly the rows listed in
// rows (ascending, no duplicates); other rows of dst are untouched. For
// each listed row the per-element accumulation order is identical to
// SpMMAdd's (contributions arrive in nonzero order k), so splitting a
// product into disjoint row lists and running them in any order reproduces
// the full SpMMAdd bit for bit.
//
// This is the kernel behind the overlapped halo trainers' interior/frontier
// split: interior rows (no remote dependencies) multiply while the halo
// exchange is in flight, frontier rows after its Wait.
func SpMMAddRowList(dst *dense.Matrix, a *CSR, x *dense.Matrix, rows []int) {
	checkSpMM(dst, a, x, "SpMMAddRowList")
	if len(rows) == 0 {
		return
	}
	rowListJobs.Run(len(rows), 2*RowListNNZ(a, rows)*int64(x.Cols), rowListJob{dst, a, x, rows})
}

// rowListJob is the product dst[i] += (a·x)[i] over the listed rows.
type rowListJob struct {
	dst  *dense.Matrix
	a    *CSR
	x    *dense.Matrix
	rows []int
}

var rowListJobs parallel.Dispatcher[rowListJob, *rowListJob]

// Rows is the serial row-list loop over the listed rows [lo, hi), one tile
// call per run of consecutive listed rows; each listed output row is owned
// by exactly one worker, so the parallel split stays bit-identical.
func (j *rowListJob) Rows(lo, hi int) {
	dst, a, x, rows := j.dst, j.a, j.x, j.rows[lo:hi]
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n] == rows[0]+n {
			n++
		}
		spMMRows(dst, a, x, rows[0], rows[0]+n, true)
		rows = rows[n:]
	}
}

// RowListNNZ returns the nonzero count of a restricted to the listed rows —
// the flop basis the cost model charges for a row-list SpMM.
func RowListNNZ(a *CSR, rows []int) int64 {
	var nnz int64
	for _, i := range rows {
		nnz += int64(a.RowPtr[i+1] - a.RowPtr[i])
	}
	return nnz
}

// SpMMFlops returns the floating-point operation count of SpMM(a, x): one
// multiply and one add per (nonzero, dense column) pair.
func SpMMFlops(a *CSR, denseCols int) int64 {
	return 2 * int64(a.NNZ()) * int64(denseCols)
}

func checkSpMM(dst *dense.Matrix, a *CSR, x *dense.Matrix, op string) {
	if a.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: %s inner dimension mismatch: %dx%d * %dx%d", op, a.Rows, a.Cols, x.Rows, x.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Rows, x.Cols))
	}
}
