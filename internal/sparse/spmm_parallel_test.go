package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// useWorkers sets the shared pool to n workers for the rest of the test,
// restoring the previous count when it ends.
func useWorkers(tb testing.TB, n int) {
	prev := parallel.Workers()
	parallel.SetWorkers(n)
	tb.Cleanup(func() { parallel.SetWorkers(prev) })
}

// withWorkers computes the same kernel on one worker and on seven (enough
// to force real partitioning) and hands both results to check.
func withWorkers(t *testing.T, compute func() *dense.Matrix, check func(serial, par *dense.Matrix)) {
	t.Helper()
	useWorkers(t, 1)
	serial := compute()
	useWorkers(t, 7)
	par := compute()
	check(serial, par)
}

// requireBitIdentical fails unless a and b match bit for bit.
func requireBitIdentical(t *testing.T, serial, par *dense.Matrix) {
	t.Helper()
	if serial.Rows != par.Rows || serial.Cols != par.Cols {
		t.Fatalf("shape mismatch: serial %dx%d, parallel %dx%d", serial.Rows, serial.Cols, par.Rows, par.Cols)
	}
	for i := range serial.Data {
		if serial.Data[i] != par.Data[i] {
			t.Fatalf("element %d differs: serial %v, parallel %v", i, serial.Data[i], par.Data[i])
		}
	}
}

// randomCSR builds a CSR with roughly density*rows*cols nonzeros, plus a few
// deliberately empty rows.
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < rows; i++ {
		if rows > 4 && i%5 == 3 {
			continue // leave every fifth-ish row empty
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(rows, cols, entries)
}

func randomMatrix(rng *rand.Rand, rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// spmmShapes covers the paper-shaped products plus degenerate edges: empty
// matrices, single rows/columns, and tall/wide extremes. Sizes are chosen so
// the larger cases clear the parallel dispatch threshold.
var spmmShapes = []struct {
	rows, cols, f int
	density       float64
}{
	{0, 0, 3, 0},
	{1, 1, 1, 1},
	{1, 600, 40, 0.5}, // 1xN
	{600, 1, 40, 0.5}, // Nx1
	{97, 103, 1, 0.3}, // single dense column
	{256, 256, 32, 0.05},
	{500, 300, 64, 0.1},
	{300, 500, 64, 0.1},
}

// TestSpMMParallelBitIdentical: SpMM on the CSR tile at one worker or seven
// is the reference loop (one AxpyRow per entry) bit for bit, into a dirty
// destination.
func TestSpMMParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(name string, a *CSR, f int) {
		t.Run(name, func(t *testing.T) {
			x := randomMatrix(rng, a.Cols, f)
			want := dense.New(a.Rows, f)
			RefSpMM(want, a, x)
			withWorkers(t, func() *dense.Matrix {
				dst := randomMatrix(rng, a.Rows, f)
				SpMM(dst, a, x)
				return dst
			}, func(serial, par *dense.Matrix) {
				requireBitIdentical(t, want, serial)
				requireBitIdentical(t, want, par)
			})
		})
	}
	for _, s := range spmmShapes {
		check(fmt.Sprintf("%dx%d_f%d", s.rows, s.cols, s.f), randomCSR(rng, s.rows, s.cols, s.density), s.f)
	}
	// The nonzero-balanced split at its most uneven: worker ranges of 2 to
	// 200 rows.
	check("skewed_300x300_f64", skewedCSR(rng, 300), 64)
}

func TestSpMMAddParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, a := range []*CSR{randomCSR(rng, 400, 350, 0.08), skewedCSR(rng, 300)} {
		t.Run(fmt.Sprintf("%dx%d", a.Rows, a.Cols), func(t *testing.T) {
			x := randomMatrix(rng, a.Cols, 48)
			init := randomMatrix(rng, a.Rows, 48)
			withWorkers(t, func() *dense.Matrix {
				dst := init.Clone()
				SpMMAdd(dst, a, x)
				return dst
			}, func(serial, par *dense.Matrix) {
				requireBitIdentical(t, serial, par)
			})
		})
	}
}

// TestSpMMParallelMatchesNaive cross-checks the parallel kernel against a
// naive dense reference (within floating-point tolerance, since the naive
// reference accumulates in a different order).
func TestSpMMParallelMatchesNaive(t *testing.T) {
	useWorkers(t, 7)
	rng := rand.New(rand.NewSource(19))
	a := randomCSR(rng, 150, 120, 0.2)
	x := randomMatrix(rng, 120, 50)
	dst := dense.New(150, 50)
	SpMM(dst, a, x)

	want := dense.New(150, 50)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * x.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !dense.EqualWithin(dst, want, 1e-9) {
		t.Fatalf("parallel SpMM deviates from naive reference by %g", dense.MaxAbsDiff(dst, want))
	}
}
