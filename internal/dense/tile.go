package dense

import "sync"

// tileFunc is the register-tiled accumulation entry every GEMM-family kernel
// of this package bottoms out in. For every row ρ < rows and column c < cols
// it computes
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : 0) + Σ_kk s[ρ·sRow + kk·sK] · b[kk·ldb + c]
//
// adding the terms in ascending kk and, when skip is set, skipping a term
// exactly where its scale != 0 is false (±0 is skipped, NaN is not). The
// scale address has a row and a k stride, so one entry serves a·b (s = a,
// sRow = a.Cols, sK = 1) and aᵀ·b (sRow = 1, sK = a.Cols). The kernels
// resolve it once per entry with tileFor, beside the Axpy pair.
type tileFunc[T Elem] func(dst []T, ldd int, s []T, sRow, sK int, b []T, ldb int, rows, cols, k int, load, skip bool)

// gemmTile is the tile entry in portable Go: one AxpyRow per term, a row at
// a time. It is the entry on every platform without the vector routines and,
// like AxpyRow, the definition the vector body reproduces bit for bit: each
// output element receives one multiply and one add per unskipped term, in
// ascending kk.
func gemmTile[T Elem](dst []T, ldd int, s []T, sRow, sK int, b []T, ldb int, rows, cols, k int, load, skip bool) {
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

// tileFor returns the tile entry for element type T: the process-wide choice
// for float64 and float32, the Go body for any other Elem.
func tileFor[T Elem]() tileFunc[T] {
	if t, ok := any(tileF64).(tileFunc[T]); ok {
		return t
	}
	if t, ok := any(tileF32).(tileFunc[T]); ok {
		return t
	}
	return gemmTile[T]
}

// packPool is a free list of the scratch MulT packs Wᵀ into: one slice per
// call in flight, returned after the call, so a warmed epoch allocates
// nothing. Not a sync.Pool: that one may drop what it is given (the GC
// empties it, and under -race it discards a quarter of all puts), and the
// 0 allocs/epoch pins run under -race too.
type packPool[T Elem] struct {
	mu   sync.Mutex
	free [][]T
}

var (
	packF64 packPool[float64]
	packF32 packPool[float32]
)

func packFor[T Elem]() *packPool[T] {
	if p, ok := any(&packF64).(*packPool[T]); ok {
		return p
	}
	if p, ok := any(&packF32).(*packPool[T]); ok {
		return p
	}
	return new(packPool[T])
}

// get returns n elements of scratch, from the free list when a slice there
// is large enough.
func (p *packPool[T]) get(n int) []T {
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
	return make([]T, n, capClass(n))
}

func (p *packPool[T]) put(buf []T) {
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}
