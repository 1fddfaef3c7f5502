//go:build !purego

package dense

// hasAVX2 reports whether this CPU and OS run the vector routines: AVX2 for
// the tiles and the compaction, and FMA, without which math.Exp takes its
// unfused path and the log-softmax lanes, which replay the fused one, would
// not match it.
func hasAVX2() bool

func init() {
	if !hasAVX2() {
		return
	}
	kernelISA = "avx2"
	tileF64 = tileF64AVX2
	csrF64 = csrTileF64AVX2
	compact64 = compactNZF64AVX2
	lanesF64 = rowLanes{forward: forwardF64AVX2, backward: backwardF64AVX2}
}
