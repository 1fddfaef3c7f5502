package dense

import (
	"fmt"

	"repro/internal/parallel"
)

// gemmFlops estimates the work of an n x k by k x m product.
func gemmFlops(n, k, m int) int64 { return 2 * int64(n) * int64(k) * int64(m) }

// AxpyRow computes dst[j] += v * x[j] for every j — the inner loop of the
// SpMM kernels in internal/sparse, of the Go tile body and of the reference
// kernels, in portable Go. SpMM reaches it through AxpyFor, which
// substitutes the bit-identical vector routine where the CPU has one; the
// reference kernels call it directly, so it is both the fallback and the
// oracle. The body is a
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

// Mul computes dst = a * b. dst must not alias a or b and must be
// pre-shaped (a.Rows x b.Cols); it is overwritten.
//
// All GEMM kernels in this package dispatch on the process-wide parallel
// backend: large products are row-partitioned across the shared worker
// pool, with each output row owned by exactly one worker so results are
// bit-identical to the serial loops.
func Mul[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "Mul")
	mul(dst, a, b, false, epilogue[T]{})
}

// MulAdd computes dst += a * b. dst must not alias a or b.
func MulAdd[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "MulAdd")
	mul(dst, a, b, true, epilogue[T]{})
}

// MulBiasReLU computes dst = relu(a*b + bias) — the fused forward epilogue:
// the bias broadcast (bias may be nil) and the ReLU are applied to each
// block of output rows as soon as its accumulation finishes, while the rows
// are still cache-resident, instead of as two further full passes over the
// layer activation. For a fixed output element the multiply-add sequence is
// identical to Mul's, and the epilogue runs after the element's sum is
// complete, so the result is bit-identical to Mul followed by the ReLU
// activation. dst must not alias a or b; bias must be nil or length b.Cols.
func MulBiasReLU[T Elem](dst, a, b *Of[T], bias []T) {
	checkMul(dst, a, b, "MulBiasReLU")
	checkBias(bias, b.Cols, "MulBiasReLU")
	mul(dst, a, b, false, epilogue[T]{relu: true, bias: bias})
}

// MulAddBiasReLU computes dst = relu(dst + a*b + bias): the accumulating
// form of MulBiasReLU, for call sites that fold a residual or partial
// product into the fused epilogue.
func MulAddBiasReLU[T Elem](dst, a, b *Of[T], bias []T) {
	checkMul(dst, a, b, "MulAddBiasReLU")
	checkBias(bias, b.Cols, "MulAddBiasReLU")
	mul(dst, a, b, true, epilogue[T]{relu: true, bias: bias})
}

// mul is the Mul family: dst (+)= a·b, zero scales skipped, then the
// epilogue.
func mul[T Elem](dst, a, b *Of[T], load bool, epi epilogue[T]) {
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Rows, work) {
		mulRows(dst, a, b.Data, 0, a.Rows, load, true, epi)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulRows(dst, a, b.Data, lo, hi, load, true, epi)
	})
}

// Blocking of the GEMM drivers around the tile entry: a block of rowBlock
// output rows is finished — every k-step, then its epilogue — before the
// next starts, and a tile call covers at most kBlock k-steps, so the B panel
// one column strip reads (kBlock rows of it) stays in L1 while the call
// sweeps the block's rows. Splitting k into blocks reloads the running sums
// between them and changes no element's order of operations.
const (
	rowBlock = 256
	kBlock   = 64
)

// epilogue is what a Mul-family kernel applies to a block of output rows
// once their sums are complete: nothing, the bias broadcast and ReLU, or the
// ReLU gradient mask (+0 wherever mask > 0 is false) — the ReLU rule of
// ReLU.Forward and ReLU.Backward, through the same row kernels.
type epilogue[T Elem] struct {
	relu bool
	bias []T
	mask *Of[T]
}

func (e epilogue[T]) apply(dst *Of[T], lo, hi int) {
	block := dst.Data[lo*dst.Cols : hi*dst.Cols]
	switch {
	case e.relu:
		if e.bias != nil {
			for i := lo; i < hi; i++ {
				row := dst.Row(i)
				for j, b := range e.bias {
					row[j] += b
				}
			}
		}
		reluRow(block, block)
	case e.mask != nil:
		reluMaskRow(block, block, e.mask.Data[lo*dst.Cols:hi*dst.Cols])
	}
}

// mulRows computes rows [lo, hi) of dst (+)= a·b through the tile entry,
// with b given as its a.Cols × dst.Cols row-major data (b itself for Mul,
// the packed Wᵀ for MulT), then the epilogue of each row block.
func mulRows[T Elem](dst, a *Of[T], b []T, lo, hi int, load, skip bool, epi epilogue[T]) {
	tile := tileFor[T]()
	k, m := a.Cols, dst.Cols
	for i0 := lo; i0 < hi; i0 += rowBlock {
		i1 := min(i0+rowBlock, hi)
		for k0 := 0; k0 == 0 || k0 < k; k0 += kBlock {
			tile(dst.Data[i0*m:], m, a.Data[i0*k+k0:], k, 1, b[k0*m:], m,
				i1-i0, m, min(kBlock, k-k0), load || k0 > 0, skip)
		}
		epi.apply(dst, i0, i1)
	}
}

// MulT computes dst = a * bᵀ. dst must be a.Rows x b.Rows and must not
// alias a or b.
func MulT[T Elem](dst, a, b *Of[T]) {
	checkMulT(dst, a, b, "MulT")
	mulT(dst, a, b, epilogue[T]{})
}

// MulTReLUMask computes dst = (a * bᵀ) ⊙ (h > 0) — the fused backward
// epilogue: the ReLU gradient mask is applied to each block of output rows
// right after its sums complete, eliminating the separate full pass of an
// activation-backward step. Masking happens after the sum is complete, so
// each kept element is bit-identical to MulT's. h must have dst's shape.
func MulTReLUMask[T Elem](dst, a, b, h *Of[T]) {
	checkMulT(dst, a, b, "MulTReLUMask")
	if h.Rows != dst.Rows || h.Cols != dst.Cols {
		panic(fmt.Sprintf("dense: MulTReLUMask mask shape %dx%d, want %dx%d", h.Rows, h.Cols, dst.Rows, dst.Cols))
	}
	mulT(dst, a, b, epilogue[T]{mask: h})
}

// mulT is a·bᵀ as the tile entry over bᵀ, packed once per call into pooled
// scratch: each output element is the dot product of a row of a with a row
// of b, summed from +0 in ascending k with no term skipped — the scalar dot
// loop's operations in its order (RefMulT).
func mulT[T Elem](dst, a, b *Of[T], epi epilogue[T]) {
	pool := packFor[T]()
	bt := pool.get(b.Rows * b.Cols)
	for j := 0; j < b.Rows; j++ {
		for kk, v := range b.Row(j) {
			bt[kk*b.Rows+j] = v
		}
	}
	work := gemmFlops(a.Rows, a.Cols, b.Rows)
	if parallel.Inline(a.Rows, work) {
		mulRows(dst, a, bt, 0, a.Rows, false, false, epi)
	} else {
		parallel.Rows(a.Rows, work, func(lo, hi int) {
			mulRows(dst, a, bt, lo, hi, false, false, epi)
		})
	}
	pool.put(bt)
}

// TMul computes dst = aᵀ * b. dst must be a.Cols x b.Cols and must not
// alias a or b. It is overwritten.
func TMul[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMul")
	tMul(dst, a, b, false)
}

// TMulAdd computes dst += aᵀ * b without materializing aᵀ.
//
// The parallel variant is owner-computes over dst rows (columns of a): each
// worker reads every row of a but only its own columns, and every output
// element receives its terms in ascending row order of a, as in the serial
// scatter loop (RefTMul).
func TMulAdd[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMulAdd")
	tMul(dst, a, b, true)
}

func tMul[T Elem](dst, a, b *Of[T], load bool) {
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Cols, work) {
		tMulRows(dst, a, b, 0, a.Cols, load)
		return
	}
	parallel.Rows(a.Cols, work, func(lo, hi int) {
		tMulRows(dst, a, b, lo, hi, load)
	})
}

// tMulRows computes rows [lo, hi) of dst (+)= aᵀ·b through the tile entry:
// output row i takes its scales down column i of a (row stride 1, k stride
// a.Cols), the rows of a and b in blocks of kBlock.
func tMulRows[T Elem](dst, a, b *Of[T], lo, hi int, load bool) {
	tile := tileFor[T]()
	n, m := a.Cols, b.Cols
	for r0 := 0; r0 == 0 || r0 < a.Rows; r0 += kBlock {
		tile(dst.Data[lo*m:], m, a.Data[r0*n+lo:], 1, n, b.Data[r0*m:], m,
			hi-lo, m, min(kBlock, a.Rows-r0), load || r0 > 0, true)
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
