package comm

import (
	"math"
	"strings"
	"testing"
)

// TestWireFit is the α–β fit's table: exact recovery from noise-free
// samples, each clamp with the other coefficient refit alone, the two
// degenerate inputs, and one noisy case.
func TestWireFit(t *testing.T) {
	m := []float64{1, 2, 3, 7, 4}
	w := []float64{10, 4000, 150, 90000, 8}
	line := func(alpha, beta float64) []float64 {
		t := make([]float64, len(m))
		for i := range t {
			t[i] = alpha*m[i] + beta*w[i]
		}
		return t
	}
	dot := func(x, y []float64) (s float64) {
		for i := range x {
			s += x[i] * y[i]
		}
		return s
	}
	negAlpha, negBeta := line(-2e-7, 1e-9), line(1e-5, -1e-10)
	cases := []struct {
		name    string
		m, w, t []float64
		want    CostParams
		wantErr string
	}{
		{"exact", m, w, line(3e-6, 2.5e-9), CostParams{Alpha: 3e-6, Beta: 2.5e-9}, ""},
		{"exact-slow-link", m, w, line(5e-5, 4e-8), CostParams{Alpha: 5e-5, Beta: 4e-8}, ""},
		{"exact-fast-link", m, w, line(1e-6, 1e-10), CostParams{Alpha: 1e-6, Beta: 1e-10}, ""},
		{"alpha-clamped", m, w, negAlpha, CostParams{Beta: dot(w, negAlpha) / dot(w, w)}, ""},
		{"beta-clamped", m, w, negBeta, CostParams{Alpha: dot(m, negBeta) / dot(m, m)}, ""},
		// Expected values computed by costmodel's FitAlphaBeta, the same
		// fit over per-sample vectors, which WireSums.Fit replaced.
		{"noisy", []float64{2, 4, 1, 6, 3, 8}, []float64{100, 5000, 20, 12000, 800, 64000},
			[]float64{4.3e-5, 8.3e-5, 2.1e-5, 1.36e-4, 5.8e-5, 2.29e-4},
			CostParams{Alpha: 2.008559318196263e-05, Beta: 1.0713014512295312e-09}, ""},
		{"collinear", m, []float64{100, 200, 300, 700, 400}, line(1e-6, 1e-9), CostParams{}, "collinear"},
		{"one-sample", m[:1], w[:1], []float64{1e-5}, CostParams{}, "at least 2"},
		{"no-samples", nil, nil, nil, CostParams{}, "at least 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s WireSums
			for i := range tc.t {
				m, w, t := tc.m[i], tc.w[i], tc.t[i]
				s.Add(WireSums{Samples: 1, Msgs: m, Words: w, MM: m * m, WW: w * w, MW: m * w, MT: m * t, WT: w * t})
			}
			got, err := s.Fit()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Fit() = %+v, %v; want an error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Alpha-tc.want.Alpha) > 1e-12*math.Abs(tc.want.Alpha) ||
				math.Abs(got.Beta-tc.want.Beta) > 1e-12*math.Abs(tc.want.Beta) {
				t.Fatalf("Fit() = %+v, want %+v", got, tc.want)
			}
		})
	}
}
