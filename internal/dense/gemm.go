package dense

import (
	"fmt"

	"repro/internal/parallel"
)

// blockSize is the cache-blocking tile edge for GEMM kernels. 64 keeps a
// 64x64 float64 tile (32 KiB) within L1 on common hardware.
const blockSize = 64

// gemmFlops estimates the work of an n x k by k x m product.
func gemmFlops(n, k, m int) int64 { return 2 * int64(n) * int64(k) * int64(m) }

// AxpyRow computes dst[j] += v * x[j] for every j — the inner loop of every
// row-major multiply kernel in this package and in internal/sparse, in
// portable Go. The kernels reach it through AxpyFor, which substitutes the
// bit-identical vector routine where the CPU has one; the reference kernels
// call it directly, so it is both the fallback and the oracle. The body is a
// 4-wide j-unroll with independent load/store slots; each output element
// still receives exactly one multiply and one add, so the result is
// bit-identical to the plain loop for any element type.
func AxpyRow[T Elem](dst []T, v T, x []T) {
	n := len(dst)
	x = x[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		dst[j] += v * x0
		dst[j+1] += v * x1
		dst[j+2] += v * x2
		dst[j+3] += v * x3
	}
	for ; j < n; j++ {
		dst[j] += v * x[j]
	}
}

// Axpy4Row computes dst[j] += v0*x0[j]; dst[j] += v1*x1[j]; dst[j] +=
// v2*x2[j]; dst[j] += v3*x3[j] for every j, in exactly that order — the
// four-source form of AxpyRow, and like it the portable body behind
// AxpyFor. Fusing four accumulation passes into one sweep loads and stores
// each dst element once instead of four times (the axpy loops are
// load/store-bound, not multiply-bound), while the per-element adds stay
// sequential in source order, so the result is bit-identical to four
// consecutive AxpyRow calls — including every ±0 and NaN case, since the
// same operations run in the same order.
func Axpy4Row[T Elem](dst []T, v0 T, x0 []T, v1 T, x1 []T, v2 T, x2 []T, v3 T, x3 []T) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	j := 0
	// Four j-lanes: each lane's adds stay sequential in source order (the
	// bit-identity requirement), but the four chains are independent, hiding
	// the add latency the single-lane form would serialize on.
	for ; j+4 <= n; j += 4 {
		s0 := dst[j] + v0*x0[j]
		s1 := dst[j+1] + v0*x0[j+1]
		s2 := dst[j+2] + v0*x0[j+2]
		s3 := dst[j+3] + v0*x0[j+3]
		s0 += v1 * x1[j]
		s1 += v1 * x1[j+1]
		s2 += v1 * x1[j+2]
		s3 += v1 * x1[j+3]
		s0 += v2 * x2[j]
		s1 += v2 * x2[j+1]
		s2 += v2 * x2[j+2]
		s3 += v2 * x2[j+3]
		s0 += v3 * x3[j]
		s1 += v3 * x3[j+1]
		s2 += v3 * x3[j+2]
		s3 += v3 * x3[j+3]
		dst[j] = s0
		dst[j+1] = s1
		dst[j+2] = s2
		dst[j+3] = s3
	}
	for ; j < n; j++ {
		s := dst[j] + v0*x0[j]
		s += v1 * x1[j]
		s += v2 * x2[j]
		s += v3 * x3[j]
		dst[j] = s
	}
}

// reluRow applies max(v, 0) in place — the shared ReLU epilogue of the
// fused kernels, identical to the ReLU activation's elementwise rule.
func reluRow[T Elem](row []T) {
	for j, v := range row {
		if v < 0 {
			row[j] = 0
		}
	}
}

// biasReluRow adds the bias broadcast (nil bias allowed) and applies ReLU
// in one pass over a freshly accumulated output row.
func biasReluRow[T Elem](row, bias []T) {
	if bias == nil {
		reluRow(row)
		return
	}
	for j, v := range row {
		v += bias[j]
		if v < 0 {
			v = 0
		}
		row[j] = v
	}
}

// Mul computes dst = a * b. dst must not alias a or b and must be
// pre-shaped (a.Rows x b.Cols); it is overwritten.
//
// All GEMM kernels in this package dispatch on the process-wide parallel
// backend: large products are row-partitioned across the shared worker
// pool, with each output row owned by exactly one worker so results are
// bit-identical to the serial loops.
func Mul[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "Mul")
	dst.Zero()
	MulAdd(dst, a, b)
}

// MulAdd computes dst += a * b with ikj loop order and cache blocking over
// the k dimension. dst must not alias a or b.
func MulAdd[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "MulAdd")
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Rows, work) {
		mulAddRows(dst, a, b, 0, a.Rows)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulAddRows(dst, a, b, lo, hi)
	})
}

// mulAddRows accumulates rows [lo, hi) of a*b into dst. The per-row k-block
// traversal matches the serial kernel, so each output row sees the same
// floating-point accumulation order regardless of partitioning.
func mulAddRows[T Elem](dst, a, b *Of[T], lo, hi int) {
	ax := AxpyFor[T]()
	k, m := a.Cols, b.Cols
	for k0 := 0; k0 < k; k0 += blockSize {
		k1 := min(k0+blockSize, k)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*m : (i+1)*m]
			axpyKRun(ax, drow, arow, b, m, k0, k1)
		}
	}
}

// axpyKRun accumulates b rows [k0, k1) scaled by arow[kk] into drow, in
// ascending kk order. Runs of four nonzero scales take the fused Axpy4Row
// sweep; a zero scale falls back to the skipping scalar step, preserving
// the historical skip semantics (no +0 added, no 0·Inf evaluated) exactly.
// Either way each dst element receives the same adds in the same order as
// the plain per-kk loop, so the result is bit-identical.
func axpyKRun[T Elem](ax Axpy[T], drow, arow []T, b *Of[T], m, k0, k1 int) {
	kk := k0
	for kk < k1 {
		if k1-kk >= 4 {
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				ax.Row4(drow,
					a0, b.Data[kk*m:(kk+1)*m],
					a1, b.Data[(kk+1)*m:(kk+2)*m],
					a2, b.Data[(kk+2)*m:(kk+3)*m],
					a3, b.Data[(kk+3)*m:(kk+4)*m])
				kk += 4
				continue
			}
		}
		if av := arow[kk]; av != 0 {
			ax.Row(drow, av, b.Data[kk*m:(kk+1)*m])
		}
		kk++
	}
}

// MulBiasReLU computes dst = relu(a*b + bias) — the fused forward epilogue:
// the bias broadcast (bias may be nil) and the ReLU are applied to each
// output row as soon as its accumulation finishes, while the row is still
// cache-resident, instead of as two further full passes over the layer
// activation. For a fixed output element the multiply-add sequence is
// identical to Mul's, and the epilogue runs after the element's sum is
// complete, so the result is bit-identical to Mul followed by the ReLU
// activation. dst must not alias a or b; bias must be nil or length b.Cols.
func MulBiasReLU[T Elem](dst, a, b *Of[T], bias []T) {
	checkMul(dst, a, b, "MulBiasReLU")
	checkBias(bias, b.Cols, "MulBiasReLU")
	dst.Zero()
	MulAddBiasReLU(dst, a, b, bias)
}

// MulAddBiasReLU computes dst = relu(dst + a*b + bias): the accumulating
// form of MulBiasReLU, for call sites that fold a residual or partial
// product into the fused epilogue.
func MulAddBiasReLU[T Elem](dst, a, b *Of[T], bias []T) {
	checkMul(dst, a, b, "MulAddBiasReLU")
	checkBias(bias, b.Cols, "MulAddBiasReLU")
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Rows, work) {
		mulAddBiasReLURows(dst, a, b, bias, 0, a.Rows)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulAddBiasReLURows(dst, a, b, bias, lo, hi)
	})
}

// mulAddBiasReLURows is mulAddRows with the row-block loop hoisted outward
// so a row block is fully accumulated (all k blocks, in the same ascending
// kk order per element) before its epilogue runs; the epilogue then touches
// the block while its lines are still hot.
func mulAddBiasReLURows[T Elem](dst, a, b *Of[T], bias []T, lo, hi int) {
	ax := AxpyFor[T]()
	k, m := a.Cols, b.Cols
	for i0 := lo; i0 < hi; i0 += blockSize {
		i1 := min(i0+blockSize, hi)
		for k0 := 0; k0 < k; k0 += blockSize {
			k1 := min(k0+blockSize, k)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*m : (i+1)*m]
				axpyKRun(ax, drow, arow, b, m, k0, k1)
			}
		}
		for i := i0; i < i1; i++ {
			biasReluRow(dst.Data[i*m:(i+1)*m], bias)
		}
	}
}

// MulT computes dst = a * bᵀ. dst must be a.Rows x b.Rows and must not
// alias a or b.
func MulT[T Elem](dst, a, b *Of[T]) {
	checkMulT(dst, a, b, "MulT")
	work := gemmFlops(a.Rows, a.Cols, b.Rows)
	if parallel.Inline(a.Rows, work) {
		mulTRows(dst, a, b, 0, a.Rows)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulTRows(dst, a, b, lo, hi)
	})
}

// mulTRows computes rows [lo, hi) of a*bᵀ.
func mulTRows[T Elem](dst, a, b *Of[T], lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s T
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
}

// MulTReLUMask computes dst = (a * bᵀ) ⊙ (h > 0) — the fused backward
// epilogue: the ReLU gradient mask is applied to each output element right
// after its dot product completes, eliminating the separate full pass of
// an activation-backward step. Masking happens after the sum is complete,
// so each kept element is bit-identical to MulT's. h must have dst's shape.
func MulTReLUMask[T Elem](dst, a, b, h *Of[T]) {
	checkMulT(dst, a, b, "MulTReLUMask")
	if h.Rows != dst.Rows || h.Cols != dst.Cols {
		panic(fmt.Sprintf("dense: MulTReLUMask mask shape %dx%d, want %dx%d", h.Rows, h.Cols, dst.Rows, dst.Cols))
	}
	work := gemmFlops(a.Rows, a.Cols, b.Rows)
	if parallel.Inline(a.Rows, work) {
		mulTReLUMaskRows(dst, a, b, h, 0, a.Rows)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulTReLUMaskRows(dst, a, b, h, lo, hi)
	})
}

// mulTReLUMaskRows computes rows [lo, hi) of (a*bᵀ) ⊙ (h > 0).
func mulTReLUMaskRows[T Elem](dst, a, b, h *Of[T], lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		hrow := h.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			if hrow[j] <= 0 {
				drow[j] = 0
				continue
			}
			brow := b.Data[j*k : (j+1)*k]
			var s T
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
}

// TMul computes dst = aᵀ * b. dst must be a.Cols x b.Cols and must not
// alias a or b. It is overwritten.
func TMul[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMul")
	dst.Zero()
	TMulAdd(dst, a, b)
}

// TMulAdd computes dst += aᵀ * b without materializing aᵀ.
//
// The parallel variant is owner-computes over dst rows (columns of a): each
// worker scans every row of a but touches only its own column slice, so
// contributions to a given output row arrive in the same order as in the
// serial scatter loop.
func TMulAdd[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMulAdd")
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Cols, work) {
		tMulAddCols(dst, a, b, 0, a.Cols)
		return
	}
	parallel.Rows(a.Cols, work, func(lo, hi int) {
		tMulAddCols(dst, a, b, lo, hi)
	})
}

// tMulAddCols accumulates rows [lo, hi) of aᵀ*b into dst. Source rows of a
// are consumed four at a time: for each output row the four contributions
// add in ascending r order (fused when all four scales are nonzero, the
// skipping scalar steps otherwise), exactly the order the plain per-r sweep
// produces, so the result is bit-identical to it.
func tMulAddCols[T Elem](dst, a, b *Of[T], lo, hi int) {
	ax := AxpyFor[T]()
	k, m := a.Cols, b.Cols
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		ar0 := a.Data[r*k : (r+1)*k]
		ar1 := a.Data[(r+1)*k : (r+2)*k]
		ar2 := a.Data[(r+2)*k : (r+3)*k]
		ar3 := a.Data[(r+3)*k : (r+4)*k]
		br0 := b.Data[r*m : (r+1)*m]
		br1 := b.Data[(r+1)*m : (r+2)*m]
		br2 := b.Data[(r+2)*m : (r+3)*m]
		br3 := b.Data[(r+3)*m : (r+4)*m]
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				ax.Row4(dst.Data[i*m:(i+1)*m], a0, br0, a1, br1, a2, br2, a3, br3)
				continue
			}
			drow := dst.Data[i*m : (i+1)*m]
			if a0 != 0 {
				ax.Row(drow, a0, br0)
			}
			if a1 != 0 {
				ax.Row(drow, a1, br1)
			}
			if a2 != 0 {
				ax.Row(drow, a2, br2)
			}
			if a3 != 0 {
				ax.Row(drow, a3, br3)
			}
		}
	}
	for ; r < a.Rows; r++ {
		arow := a.Data[r*k : (r+1)*k]
		brow := b.Data[r*m : (r+1)*m]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			ax.Row(dst.Data[i*m:(i+1)*m], av, brow)
		}
	}
}

// MulNaive is a straightforward triple-loop reference used to validate the
// blocked kernels in tests.
func MulNaive[T Elem](a, b *Of[T]) *Of[T] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulNaive inner dimension mismatch: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst := NewOf[T](a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s T
			for kk := 0; kk < a.Cols; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func checkBias[T Elem](bias []T, cols int, op string) {
	if bias != nil && len(bias) != cols {
		panic(fmt.Sprintf("dense: %s bias length %d, want %d", op, len(bias), cols))
	}
}

func checkMul[T Elem](dst, a, b *Of[T], op string) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: %s inner dimension mismatch: %dx%d * %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

func checkMulT[T Elem](dst, a, b *Of[T], op string) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s inner dimension mismatch: %dx%d * (%dx%d)ᵀ", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("dense: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
}

func checkTMul[T Elem](dst, a, b *Of[T], op string) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: %s inner dimension mismatch: (%dx%d)ᵀ * %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}
