//go:build !purego

package dense

// The strip routines of tile_amd64.s: one column strip over every row, at
// most four vectors (16 float64 columns) with AVX2 and eight (64) with
// AVX-512.
// They take pointers, not slices; stripTile and stripCSRTile check the
// bounds first and never call them with rows or w zero.

//go:noescape
func tileStripF64(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)

//go:noescape
func csrStripF64(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool

//go:noescape
func tileStripF64AVX512(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)

//go:noescape
func csrStripF64AVX512(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool

// stripTile returns the tile entry over a dense strip routine that takes
// strips of up to width columns: the columns in strips of width, each one
// call. A window that does not fit its slices panics before any assembly
// runs, as the slicing in gemmTile would.
func stripTile(strip func(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool), width int) tileFunc {
	return func(dst []float64, ldd int, s []float64, sRow, sK int, b []float64, ldb int, rows, cols, k int, load, skip bool) {
		if rows == 0 || cols == 0 {
			return
		}
		if (rows-1)*ldd+cols > len(dst) || k > 0 && ((rows-1)*sRow+(k-1)*sK >= len(s) || (k-1)*ldb+cols > len(b)) {
			panic("dense: tile window outside its operands")
		}
		var sp, bp *float64
		for c0 := 0; c0 < cols; c0 += width {
			if k > 0 {
				sp, bp = &s[0], &b[c0]
			}
			strip(&dst[c0], ldd, sp, sRow, sK, bp, ldb, rows, min(width, cols-c0), k, load, skip)
		}
	}
}

// stripCSRTile returns the CSR tile entry over a CSR strip routine, the
// columns in strips of width. The dst window is checked here; each entry's
// index and source row are checked by the strip as it reaches them (against
// lim and bRows), and an entry outside its operands panics as the slicing
// in csrTile would.
func stripCSRTile(strip func(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool, width int) csrTileFunc {
	return func(dst []float64, ldd int, ptr, idx []int, val, b []float64, ldb, cols int, load bool) {
		rows := len(ptr) - 1
		if rows <= 0 || cols == 0 {
			return
		}
		if (rows-1)*ldd+cols > len(dst) {
			panic("dense: CSR tile window outside its operands")
		}
		lim, bRows := min(len(idx), len(val)), 0
		var ip *int
		var vp, bp *float64
		if lim > 0 {
			ip, vp = &idx[0], &val[0]
		}
		if ldb > 0 && len(b) >= cols {
			bRows = (len(b)-cols)/ldb + 1
		}
		for c0 := 0; c0 < cols; c0 += width {
			if bRows > 0 {
				bp = &b[c0]
			}
			if !strip(&dst[c0], ldd, &ptr[0], ip, vp, bp, ldb, rows, min(width, cols-c0), lim, bRows, load) {
				panic("dense: CSR tile entry outside its operands")
			}
		}
	}
}

//go:noescape
func compactF64(ptr *int, idx *int, val *float64, data *float64, rowStride int, colStride int, rows int, cols int, first int) int

// compactEntry is what the compaction body needs for one mask of four
// lanes: the set lanes in order, as the pairs of 32-bit halves VPERMPS and
// VPERMD move four 64-bit lanes by, and how many are set. The padding makes
// an entry 64 bytes, so the body finds it at mask<<6.
type compactEntry struct {
	pairs [8]int32
	count int64
	_     [3]int64
}

var compactTable [16]compactEntry

func init() {
	for m := range compactTable {
		t := &compactTable[m]
		for l := 0; l < 4; l++ {
			if m&(1<<l) != 0 {
				t.pairs[2*t.count], t.pairs[2*t.count+1] = int32(2*l), int32(2*l+1)
				t.count++
			}
		}
	}
}

// compactNZF64AVX2 is the compaction over compactF64. The window is checked
// before any assembly runs, as the Go body's indexing would: room for rows+1
// row pointers and rows·cols entries, and its last element inside data.
func compactNZF64AVX2(ptr, idx []int, val, data []float64, start, rowStride, colStride, rows, cols, first int) {
	if rows < 1 || cols < 1 {
		compactNZGo(ptr, idx, val, data, start, rowStride, colStride, rows, cols, first)
		return
	}
	last := start + (rows-1)*rowStride + (cols-1)*colStride
	if rows+1 > len(ptr) || rows*cols > min(len(idx), len(val)) || rowStride < 0 || colStride < 1 || start < 0 || last >= len(data) {
		panic("dense: compaction window outside its operands")
	}
	compactF64(&ptr[0], &idx[0], &val[0], &data[start], rowStride, colStride, rows, cols, first)
}
