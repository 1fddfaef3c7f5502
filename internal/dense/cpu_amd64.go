//go:build !purego

package dense

// hasAVX2 reports whether this CPU and OS run the AVX2 routines: AVX2 for
// the tiles' AVX2 bodies and the compaction, and FMA, without which
// math.Exp takes its unfused path and the log-softmax lanes, which replay
// the fused one, would not match it. The tiles' AVX-512 bodies are
// installed on top of these only where hasAVX512 holds as well.
func hasAVX2() bool

// hasAVX512 reports whether this CPU and OS run the tiles' AVX-512 bodies:
// AVX512F, with the opmask and ZMM state saved by the OS.
func hasAVX512() bool

func init() {
	if !hasAVX2() {
		return
	}
	tileBodies = append(tileBodies, tileBody{"avx2", stripTile(tileStripF64, 16), stripCSRTile(csrStripF64, 16)})
	if hasAVX512() {
		tileBodies = append(tileBodies, tileBody{"avx512", stripTile(tileStripF64AVX512, 64), stripCSRTile(csrStripF64AVX512, 64)})
	}
	best := tileBodies[len(tileBodies)-1]
	kernelISA, tileF64, csrF64 = best.isa, best.tile, best.csr
	compact64 = compactNZF64AVX2
	lanesF64 = rowLanes{forward: forwardF64AVX2, backward: backwardF64AVX2}
}
