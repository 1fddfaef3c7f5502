//go:build !purego

package dense

// The strip routines of tile_amd64.s: one column strip of at most four
// vectors (16 float64, 32 float32) over every row and the whole k range.
// They take pointers, not slices; tileStrips checks the bounds first and
// never calls them with rows or w zero.

//go:noescape
func tileStripF64(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)

//go:noescape
func tileStripF32(dst *float32, ldd int, s *float32, sRow int, sK int, b *float32, ldb int, rows int, w int, k int, load bool, skip bool)

func tileF64AVX2(dst []float64, ldd int, s []float64, sRow, sK int, b []float64, ldb int, rows, cols, k int, load, skip bool) {
	tileStrips(tileStripF64, 16, dst, ldd, s, sRow, sK, b, ldb, rows, cols, k, load, skip)
}

func tileF32AVX2(dst []float32, ldd int, s []float32, sRow, sK int, b []float32, ldb int, rows, cols, k int, load, skip bool) {
	tileStrips(tileStripF32, 32, dst, ldd, s, sRow, sK, b, ldb, rows, cols, k, load, skip)
}

// tileStrips is the tile entry over strip: the columns in strips of width,
// each one call. A window that does not fit its slices panics before any
// assembly runs, as the slicing in gemmTile would.
func tileStrips[T Elem](strip func(dst *T, ldd int, s *T, sRow, sK int, b *T, ldb int, rows, w, k int, load, skip bool),
	width int, dst []T, ldd int, s []T, sRow, sK int, b []T, ldb int, rows, cols, k int, load, skip bool) {
	if rows == 0 || cols == 0 {
		return
	}
	if (rows-1)*ldd+cols > len(dst) || k > 0 && ((rows-1)*sRow+(k-1)*sK >= len(s) || (k-1)*ldb+cols > len(b)) {
		panic("dense: tile window outside its operands")
	}
	var sp, bp *T
	for c0 := 0; c0 < cols; c0 += width {
		if k > 0 {
			sp, bp = &s[0], &b[c0]
		}
		strip(&dst[c0], ldd, sp, sRow, sK, bp, ldb, rows, min(width, cols-c0), k, load, skip)
	}
}
