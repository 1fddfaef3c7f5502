package dense

import "sync"

// tileFunc is the register-tiled accumulation entry every dense GEMM of this
// package bottoms out in. For every row ρ < rows and column c < cols
// it computes
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : 0) + Σ_kk s[ρ·sRow + kk·sK] · b[kk·ldb + c]
//
// adding the terms in ascending kk and, when skip is set, skipping a term
// exactly where its scale != 0 is false (±0 is skipped, NaN is not). The
// scale address has a row and a k stride, so one entry serves a·b (s = a,
// sRow = a.Cols, sK = 1) and aᵀ·b (sRow = 1, sK = a.Cols). The kernels
// call the entry chosen at package init, tileF64 (cpu.go).
type tileFunc func(dst []float64, ldd int, s []float64, sRow, sK int, b []float64, ldb int, rows, cols, k int, load, skip bool)

// gemmTile is the tile entry in portable Go: one AxpyRow per term, a row at
// a time. It is the entry on every platform without the vector routines and,
// like AxpyRow, the definition the vector body reproduces bit for bit: each
// output element receives one multiply and one add per unskipped term, in
// ascending kk.
func gemmTile(dst []float64, ldd int, s []float64, sRow, sK int, b []float64, ldb int, rows, cols, k int, load, skip bool) {
	for r := 0; r < rows; r++ {
		drow := dst[r*ldd : r*ldd+cols]
		if !load {
			clear(drow)
		}
		for kk := 0; kk < k; kk++ {
			if v := s[r*sRow+kk*sK]; v != 0 || !skip {
				AxpyRow(drow, v, b[kk*ldb:kk*ldb+cols])
			}
		}
	}
}

// csrTileFunc is the register tile over a sparse operand: the SpMM kernels
// of internal/sparse and the products over a dense operand's nonzeros
// (MulNZ, MulAddNZ, TMulNZ) bottom out in it. For every row ρ < len(ptr)-1
// and column c < cols it computes
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : 0) + Σ_e val[e] · b[idx[e]·ldb + c]
//
// over the row's stored entries e = ptr[ρ] … ptr[ρ+1]-1, ascending, every one
// of them applied (a stored zero adds its +0·b). ptr holds absolute
// positions in idx and val, as a CSR row pointer does; idx[e] is a row of b,
// whose stride ldb is positive.
type csrTileFunc func(dst []float64, ldd int, ptr, idx []int, val, b []float64, ldb, cols int, load bool)

// csrTile is the CSR tile entry in portable Go, one AxpyRow per entry, and
// like gemmTile the definition its vector body reproduces bit for bit.
func csrTile(dst []float64, ldd int, ptr, idx []int, val, b []float64, ldb, cols int, load bool) {
	for r := 0; r+1 < len(ptr); r++ {
		drow := dst[r*ldd : r*ldd+cols]
		if !load {
			clear(drow)
		}
		for e := ptr[r]; e < ptr[r+1]; e++ {
			AxpyRow(drow, val[e], b[idx[e]*ldb:])
		}
	}
}

// SpMMRows is the CSR tile for internal/sparse: dst (+)= the product of the
// CSR rows (ptr, idx, val) — ptr[ρ] … ptr[ρ+1] the entries of row ρ, idx
// their columns, absolute positions in idx and val — with the dense b of row
// stride ldb, over its first cols columns, row ρ of the result at
// dst[ρ·ldd:]. Each output element receives one multiply and one add per
// stored entry of its row, in entry order, starting from +0 unless load is
// set: the loop of one AxpyRow per entry, bit for bit.
func SpMMRows(dst []float64, ldd int, ptr, idx []int, val, b []float64, ldb, cols int, load bool) {
	csrF64(dst, ldd, ptr, idx, val, b, ldb, cols, load)
}

// packPool is a free list of the scratch MulT packs Wᵀ into: one slice per
// call in flight, returned after the call, so a warmed epoch allocates
// nothing. Not a sync.Pool: that one may drop what it is given (the GC
// empties it, and under -race it discards a quarter of all puts), and the
// 0 allocs/epoch pins run under -race too.
type packPool struct {
	mu   sync.Mutex
	free [][]float64
}

var packs packPool

// get returns n elements of scratch, from the free list when a slice there
// is large enough.
func (p *packPool) get(n int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, buf := range p.free {
		if cap(buf) >= n {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			return buf[:n]
		}
	}
	return make([]float64, n, CapClass(n))
}

func (p *packPool) put(buf []float64) {
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}

// nzBlock is how many elements of a dense operand MulNZ and TMulNZ compact
// at a time: the window's CSR (64 KiB of entries at float64) stays in L2
// while the CSR tile multiplies it.
const nzBlock = 1 << 12

// csrBlock is the scratch a window is compacted into: a CSR of up to nzBlock
// rows and nzBlock entries.
type csrBlock struct {
	ptr, idx []int
	val      []float64
}

// blockPool is a free list of csrBlocks, one per product chunk in flight,
// kept as packPool keeps its slices. Every block has the same size, so any
// block serves any chunk and a warmed epoch allocates none.
type blockPool struct {
	mu   sync.Mutex
	free []*csrBlock
}

var nzBlocks blockPool

func (p *blockPool) get() *csrBlock {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		blk := p.free[n-1]
		p.free[n-1], p.free = nil, p.free[:n-1]
		return blk
	}
	return &csrBlock{ptr: make([]int, nzBlock+1), idx: make([]int, nzBlock), val: make([]float64, nzBlock)}
}

func (p *blockPool) put(blk *csrBlock) {
	p.mu.Lock()
	p.free = append(p.free, blk)
	p.mu.Unlock()
}

// compactFunc compacts a rows × cols window of a dense operand into a CSR
// of its nonzeros: row ρ's elements are data[start + ρ·rowStride +
// j·colStride] for j < cols, element j's index is first+j, and ptr[ρ] …
// ptr[ρ+1] are the entries it leaves in idx and val, from entry 0 on. A
// nonzero is v != 0: ±0 is dropped and NaN kept — exactly the terms the
// dense tile skips. idx and val need room for rows·cols entries, ptr for
// rows+1; colStride is positive.
type compactFunc func(ptr, idx []int, val, data []float64, start, rowStride, colStride, rows, cols, first int)

// compactNZGo is the compaction in portable Go, the definition its vector
// body (tile_amd64.go) reproduces.
func compactNZGo(ptr, idx []int, val, data []float64, start, rowStride, colStride, rows, cols, first int) {
	e := 0
	for r := 0; r < rows; r++ {
		ptr[r] = e
		for j := 0; j < cols; j++ {
			if v := data[start+r*rowStride+j*colStride]; v != 0 {
				idx[e], val[e] = first+j, v
				e++
			}
		}
	}
	ptr[rows] = e
}
