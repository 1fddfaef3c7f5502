package costmodel

import (
	"fmt"
	"math"
)

// FitAlphaBeta least-squares-fits the α–β model t ≈ α·msgs + β·words to
// per-collective wire samples (comm.Meter's vectors: one entry per
// collective call — messages moved, words moved, wall seconds). It solves
// the 2×2 normal equations of the no-intercept regression; if a
// coefficient comes out negative — possible when the samples barely
// separate latency from bandwidth — it is clamped to zero and the other
// refit alone, keeping the result physically meaningful.
//
// The fit needs variation: samples whose msgs and words are collinear
// (every collective the same shape) leave α and β unidentifiable, which
// is reported as an error rather than an arbitrary split.
func FitAlphaBeta(msgs, words, secs []float64) (alpha, beta float64, err error) {
	n := len(secs)
	if len(msgs) != n || len(words) != n {
		return 0, 0, fmt.Errorf("costmodel: sample vectors disagree: %d msgs, %d words, %d secs", len(msgs), len(words), n)
	}
	if n < 2 {
		return 0, 0, fmt.Errorf("costmodel: need at least 2 wire samples to fit α/β, got %d", n)
	}
	var smm, sww, smw, smt, swt float64
	for i := 0; i < n; i++ {
		m, w, t := msgs[i], words[i], secs[i]
		smm += m * m
		sww += w * w
		smw += m * w
		smt += m * t
		swt += w * t
	}
	det := smm*sww - smw*smw
	// Relative determinant threshold: det is exactly 0 for collinear
	// samples up to rounding, and tiny relative to its terms when nearly
	// so.
	if det <= 1e-12*smm*sww || smm == 0 || sww == 0 {
		return 0, 0, fmt.Errorf("costmodel: wire samples are collinear (every collective the same shape); cannot separate α from β")
	}
	alpha = (smt*sww - swt*smw) / det
	beta = (swt*smm - smt*smw) / det
	if alpha < 0 {
		alpha = 0
		beta = swt / sww
	}
	if beta < 0 {
		beta = 0
		alpha = smt / smm
	}
	if math.IsNaN(alpha) || math.IsNaN(beta) {
		return 0, 0, fmt.Errorf("costmodel: α/β fit diverged (NaN)")
	}
	return alpha, beta, nil
}
