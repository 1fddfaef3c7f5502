package dense

import (
	"fmt"

	"repro/internal/parallel"
)

// gemmFlops estimates the work of an n x k by k x m product.
func gemmFlops(n, k, m int) int64 { return 2 * int64(n) * int64(k) * int64(m) }

// AxpyRow computes dst[j] += v * x[j] for every j — the inner loop of the
// Go tile bodies and of the reference kernels, in portable Go. It is both
// the tiles' fallback and the oracle their vector bodies reproduce. The body
// is a 4-wide j-unroll with independent load/store slots; each output
// element still receives exactly one multiply and one add, so the result is
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

// Mul computes dst = a * b. dst must not alias a or b and must be
// pre-shaped (a.Rows x b.Cols); it is overwritten.
//
// All GEMM kernels in this package row-partition large products across the
// shared worker pool, with each output row owned by exactly one worker so
// results are bit-identical to the serial loops.
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
// alias a or b. It is overwritten. Workers own rows of dst (columns of a),
// and every element takes its terms in ascending row order of a (RefTMul).
func TMul[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMul")
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Cols, work) {
		tMulRows(dst, a, b, 0, a.Cols)
		return
	}
	parallel.Rows(a.Cols, work, func(lo, hi int) {
		tMulRows(dst, a, b, lo, hi)
	})
}

// tMulRows computes rows [lo, hi) of dst = aᵀ·b through the tile entry:
// output row i takes its scales down column i of a (row stride 1, k stride
// a.Cols), the rows of a and b in blocks of kBlock, each adding to the last.
func tMulRows[T Elem](dst, a, b *Of[T], lo, hi int) {
	tile := tileFor[T]()
	n, m := a.Cols, b.Cols
	for r0 := 0; r0 == 0 || r0 < a.Rows; r0 += kBlock {
		tile(dst.Data[lo*m:], m, a.Data[r0*n+lo:], 1, n, b.Data[r0*m:], m,
			hi-lo, m, min(kBlock, a.Rows-r0), r0 > 0, true)
	}
}

// MulNZ computes dst = a·b over the nonzeros of a: a is compacted, a window
// at a time, into the CSR of its entries with a != 0 — ±0 dropped, NaN kept,
// exactly the terms Mul skips — and multiplied by b on the CSR tile. Every
// element receives Mul's terms in Mul's order, so the result is Mul's bit
// for bit. It is for an a of which about half is exact zeros, as a ReLU
// layer's output is: the dense tile spends a term's time on each of those.
// dst must not alias a or b and is overwritten.
func MulNZ[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "MulNZ")
	mulNZ(dst, a, b, false)
}

// MulAddNZ computes dst += a·b over the nonzeros of a: MulAdd's bits.
func MulAddNZ[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "MulAddNZ")
	mulNZ(dst, a, b, true)
}

func mulNZ[T Elem](dst, a, b *Of[T], load bool) {
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Rows, work) {
		mulNZRows(dst, a, b, 0, a.Rows, load)
		return
	}
	parallel.Rows(a.Rows, work, func(lo, hi int) {
		mulNZRows(dst, a, b, lo, hi, load)
	})
}

// nzPanel is how many rows of b, m wide, a product over a's nonzeros
// multiplies per compacted window: kBlock, or fewer where m is wide, so the
// panel — at most nzBlock elements, 32 KiB at float64 — stays in L1 while
// the CSR tile gathers from it strip by strip. At kBlock rows of a 256-wide
// b, the strips' rows 2 KiB apart fall into a few L1 sets and evict each
// other.
func nzPanel(m int) int { return max(1, min(kBlock, nzBlock/max(1, m))) }

// mulNZRows computes rows [lo, hi) of dst (+)= a·b over a's nonzeros with
// mulRows' k blocking: each panel of columns of a block of rows is
// compacted, then multiplied, the block as tall as one csrBlock holds.
func mulNZRows[T Elem](dst, a, b *Of[T], lo, hi int, load bool) {
	pool, tile := blocksFor[T](), csrTileFor[T]()
	blk := pool.get()
	k, m := a.Cols, b.Cols
	panel := nzPanel(m)
	rows := nzBlock / max(1, min(panel, k))
	for i0 := lo; i0 < hi; i0 += rows {
		i1 := min(i0+rows, hi)
		for k0 := 0; k0 == 0 || k0 < k; k0 += panel {
			compactNZ(blk.ptr, blk.idx, blk.val, a.Data, i0*k+k0, k, 1, i1-i0, min(panel, k-k0), k0)
			tile(dst.Data[i0*m:], m, blk.ptr[:i1-i0+1], blk.idx, blk.val, b.Data, m, m, load || k0 > 0)
		}
	}
	pool.put(blk)
}

// TMulNZ computes dst = aᵀ·b over the nonzeros of a: MulNZ's compaction
// applied to aᵀ, a panel of rows of a at a time in ascending order, so that
// each output element receives TMul's terms in TMul's order — TMul's bits.
// dst must not alias a or b and is overwritten.
func TMulNZ[T Elem](dst, a, b *Of[T]) {
	checkTMul(dst, a, b, "TMulNZ")
	work := gemmFlops(a.Rows, a.Cols, b.Cols)
	if parallel.Inline(a.Cols, work) {
		tMulNZRows(dst.Data, a, b, 0, a.Cols)
		return
	}
	parallel.Rows(a.Cols, work, func(lo, hi int) {
		tMulNZRows(dst.Data, a, b, lo, hi)
	})
}

// tMulNZRows computes rows [lo, hi) of aᵀ·b over a's nonzeros into dst,
// b.Cols wide: output row i takes the entries of column i of a, the rows of
// a in ascending panels, each compacted into one csrBlock.
func tMulNZRows[T Elem](dst []T, a, b *Of[T], lo, hi int) {
	pool, tile := blocksFor[T](), csrTileFor[T]()
	blk := pool.get()
	n, m := a.Cols, b.Cols
	for c0 := lo; c0 < hi; c0 += nzBlock {
		c1 := min(c0+nzBlock, hi)
		panel := min(nzPanel(m), nzBlock/(c1-c0))
		for r0 := 0; r0 == 0 || r0 < a.Rows; r0 += panel {
			compactNZ(blk.ptr, blk.idx, blk.val, a.Data, r0*n+c0, 1, n, c1-c0, min(panel, a.Rows-r0), r0)
			tile(dst[c0*m:], m, blk.ptr[:c1-c0+1], blk.idx, blk.val, b.Data, m, m, r0 > 0)
		}
	}
	pool.put(blk)
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
