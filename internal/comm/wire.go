package comm

import (
	"fmt"
	"math"
)

// WireSums is the wire meter: the sums a least-squares fit of the α–β model
// t ≈ α·m + β·w reads (Fit), folded off a rank's plan on every fabric
// (Cluster.SumWire). A sample is one collective call that moved data — an
// AllReduce is one sample — with m and w the messages and words the rank
// moved inside it and t the call's wall seconds: a step made n times is n
// samples of the same m and w, whose t add up to the step's wall seconds.
//
// A sample's message/word counts are the rank's combined sent+received
// deltas — a NIC-load proxy, not a directional count — and its wall time
// includes any wait for peers to arrive at the collective, so the fitted
// α absorbs synchronization skew. That makes the fit a diagnostic of the
// fabric the trainer actually experienced, not a clean link benchmark;
// the measured-vs-modeled report says so.
type WireSums struct {
	// Samples is the number of collective calls that moved data.
	Samples int64
	// Msgs and Words are Σm and Σw.
	Msgs, Words float64
	// MM, WW and MW are Σm², Σw² and Σmw; MT and WT are Σmt and Σwt.
	MM, WW, MW, MT, WT float64
}

// Add folds o into s, which then holds the sums of both sets of samples.
func (s *WireSums) Add(o WireSums) {
	s.Samples += o.Samples
	s.Msgs += o.Msgs
	s.Words += o.Words
	s.MM += o.MM
	s.WW += o.WW
	s.MW += o.MW
	s.MT += o.MT
	s.WT += o.WT
}

// Fit least-squares-fits the α–β model t ≈ α·msgs + β·words to the
// samples, solving the 2×2 normal equations of the no-intercept
// regression; if a coefficient comes out negative — possible when the
// samples barely separate latency from bandwidth — it is clamped to zero
// and the other refit alone, keeping the result physically meaningful.
//
// The fit needs variation: samples whose msgs and words are collinear
// (every collective the same shape) leave α and β unidentifiable, which
// is reported as an error rather than an arbitrary split.
func (s WireSums) Fit() (CostParams, error) {
	if s.Samples < 2 {
		return CostParams{}, fmt.Errorf("comm: need at least 2 wire samples to fit α/β, got %d", s.Samples)
	}
	det := s.MM*s.WW - s.MW*s.MW
	// Relative determinant threshold: det is exactly 0 for collinear
	// samples up to rounding, and tiny relative to its terms when nearly
	// so.
	if det <= 1e-12*s.MM*s.WW || s.MM == 0 || s.WW == 0 {
		return CostParams{}, fmt.Errorf("comm: wire samples are collinear (every collective the same shape); cannot separate α from β")
	}
	p := CostParams{Alpha: (s.MT*s.WW - s.WT*s.MW) / det, Beta: (s.WT*s.MM - s.MT*s.MW) / det}
	if p.Alpha < 0 {
		p = CostParams{Beta: s.WT / s.WW}
	}
	if p.Beta < 0 {
		p = CostParams{Alpha: s.MT / s.MM}
	}
	if math.IsNaN(p.Alpha) || math.IsNaN(p.Beta) {
		return CostParams{}, fmt.Errorf("comm: α/β fit diverged (NaN)")
	}
	return p, nil
}
