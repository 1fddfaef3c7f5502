package sparse

import (
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// spmmFeatureBlock is the column-tile width for the feature-blocked SpMM
// loop. Dense operands wider than this are processed one 256-column tile at
// a time (256 float64 = 2 KiB per x row), so the set of x rows a CSR row
// block touches stays cache-resident instead of streaming whole wide rows
// through L1 for every nonzero.
const spmmFeatureBlock = 256

// spmmRowBlock is the CSR row-block height of the feature-blocked loop: all
// feature tiles of one row block complete before the next block starts, so
// the x rows referenced by the block are reused across tiles while still
// hot.
const spmmRowBlock = 64

// SpMM computes dst = a * x where a is sparse and x is dense (the SpMM
// kernel the paper identifies as the dominant GNN training cost). dst must
// be a.Rows x x.Cols and is overwritten.
//
// Like every kernel in this package, SpMM dispatches on the process-wide
// parallel backend: under parallel.BackendParallel large products are
// row-partitioned across the shared worker pool, with each output row owned
// by exactly one worker so the result is bit-identical to the serial loop.
func SpMM[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T]) {
	checkSpMM(dst, a, x, "SpMM")
	dst.Zero()
	SpMMAdd(dst, a, x)
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
func SpMMAdd[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T]) {
	checkSpMM(dst, a, x, "SpMMAdd")
	work := SpMMFlops(a, x.Cols)
	chunks := min(parallel.Workers(), a.Rows)
	if parallel.Inline(chunks, work) {
		spMMAddRows(dst, a, x, 0, a.Rows)
		return
	}
	parallel.Rows(chunks, work, func(lo, hi int) {
		spMMAddRows(dst, a, x, chunkStart(a.RowPtr, lo, chunks), chunkStart(a.RowPtr, hi, chunks))
	})
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

// axpyEntryRun accumulates the stored entries [k0, k1) of (val, colIdx)
// into drow: entry k scales the len(drow)-wide slice of x starting at
// colIdx[k]*stride+off. Entries are consumed four per pass through the
// fused four-source sweep of ax (sequential adds in entry order), with a
// one-source tail — per output element exactly the adds of the per-entry loop
// in the same order, so the result is bit-identical to it (a stored zero
// contributes its +0·x in both forms).
func axpyEntryRun[T dense.Elem](ax dense.Axpy[T], drow []T, val []T, colIdx []int, xdata []T, stride, off, k0, k1 int) {
	n := len(drow)
	k := k0
	for ; k+4 <= k1; k += 4 {
		c0 := colIdx[k]*stride + off
		c1 := colIdx[k+1]*stride + off
		c2 := colIdx[k+2]*stride + off
		c3 := colIdx[k+3]*stride + off
		ax.Row4(drow,
			val[k], xdata[c0:c0+n],
			val[k+1], xdata[c1:c1+n],
			val[k+2], xdata[c2:c2+n],
			val[k+3], xdata[c3:c3+n])
	}
	for ; k < k1; k++ {
		c := colIdx[k]*stride + off
		ax.Row(drow, val[k], xdata[c:c+n])
	}
}

// spMMAddRows accumulates rows [lo, hi) of a*x into dst. For each output
// row the accumulation order is identical to the full serial loop: wide
// operands take the feature-blocked path, which visits the same
// (nonzero, column) pairs in the same per-element order (for a fixed output
// element (i, j), contributions arrive in nonzero order k in both loops —
// column tiling only reorders across j, never across k).
func spMMAddRows[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T], lo, hi int) {
	if x.Cols > spmmFeatureBlock {
		spMMAddRowsBlocked(dst, a, x, lo, hi)
		return
	}
	ax := dense.AxpyFor[T]()
	f := x.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*f : (i+1)*f]
		axpyEntryRun(ax, drow, a.Val, a.ColIdx, x.Data, f, 0, a.RowPtr[i], a.RowPtr[i+1])
	}
}

// spMMAddRowsBlocked is the cache-blocked SpMM loop for wide dense
// operands: CSR rows are processed in blocks of spmmRowBlock, and within a
// row block the feature dimension is tiled in spmmFeatureBlock columns, so
// each x row referenced by the block contributes one tile-sized slice at a
// time and is revisited while its lines are still cached.
func spMMAddRowsBlocked[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T], lo, hi int) {
	ax := dense.AxpyFor[T]()
	f := x.Cols
	for i0 := lo; i0 < hi; i0 += spmmRowBlock {
		i1 := i0 + spmmRowBlock
		if i1 > hi {
			i1 = hi
		}
		for j0 := 0; j0 < f; j0 += spmmFeatureBlock {
			j1 := j0 + spmmFeatureBlock
			if j1 > f {
				j1 = f
			}
			for i := i0; i < i1; i++ {
				drow := dst.Data[i*f+j0 : i*f+j1]
				axpyEntryRun(ax, drow, a.Val, a.ColIdx, x.Data, f, j0, a.RowPtr[i], a.RowPtr[i+1])
			}
		}
	}
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
func SpMMAddRowList[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T], rows []int) {
	checkSpMM(dst, a, x, "SpMMAddRowList")
	if len(rows) == 0 {
		return
	}
	work := 2 * RowListNNZ(a, rows) * int64(x.Cols)
	if parallel.Inline(len(rows), work) {
		spMMAddRowList(dst, a, x, rows)
		return
	}
	parallel.Rows(len(rows), work, func(lo, hi int) {
		spMMAddRowList(dst, a, x, rows[lo:hi])
	})
}

// spMMAddRowList is the serial row-list loop; each listed output row is
// owned by exactly one worker, so the parallel split stays bit-identical.
func spMMAddRowList[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T], rows []int) {
	ax := dense.AxpyFor[T]()
	f := x.Cols
	for _, i := range rows {
		drow := dst.Data[i*f : (i+1)*f]
		axpyEntryRun(ax, drow, a.Val, a.ColIdx, x.Data, f, 0, a.RowPtr[i], a.RowPtr[i+1])
	}
}

// RowListNNZ returns the nonzero count of a restricted to the listed rows —
// the flop basis the cost model charges for a row-list SpMM.
func RowListNNZ[T dense.Elem](a *CSROf[T], rows []int) int64 {
	var nnz int64
	for _, i := range rows {
		nnz += int64(a.RowPtr[i+1] - a.RowPtr[i])
	}
	return nnz
}

// SpMMFlops returns the floating-point operation count of SpMM(a, x): one
// multiply and one add per (nonzero, dense column) pair.
func SpMMFlops[T dense.Elem](a *CSROf[T], denseCols int) int64 {
	return 2 * int64(a.NNZ()) * int64(denseCols)
}

func checkSpMM[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T], op string) {
	if a.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: %s inner dimension mismatch: %dx%d * %dx%d", op, a.Rows, a.Cols, x.Rows, x.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Rows, x.Cols))
	}
}
