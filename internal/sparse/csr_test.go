package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

// randCSR builds a random sparse matrix with the given density for tests.
func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(rows, cols, entries)
}

func randDense(rng *rand.Rand, r, c int) *dense.Matrix {
	m := dense.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewCSRBasic(t *testing.T) {
	m := NewCSR(3, 3, []Coord{
		{0, 1, 2}, {1, 0, 3}, {2, 2, 4}, {0, 2, 5},
	})
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 || m.At(2, 2) != 4 || m.At(0, 2) != 5 {
		t.Fatalf("wrong values: %v", m.ToDense())
	}
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}, {0, 0, 2}, {1, 1, 3}})
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after dedup", m.NNZ())
	}
	if m.At(0, 0) != 3 {
		t.Fatalf("At(0,0) = %v, want 3 (1+2)", m.At(0, 0))
	}
}

func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewCSR(2, 2, []Coord{{2, 0, 1}})
}

func TestCSRColumnIndicesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randCSR(rng, 20, 30, 0.2)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k-1] >= m.ColIdx[k] {
				t.Fatalf("row %d indices not strictly increasing", i)
			}
		}
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randCSR(rng, 15, 12, 0.3)
	m2 := NewCSR(m.Rows, m.Cols, m.Entries())
	if !Equal(m, m2, 0) {
		t.Fatal("Entries/NewCSR round trip changed the matrix")
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCSR(rng, 9, 14, 0.25)
	got := m.Transpose().ToDense()
	want := m.ToDense().T()
	if dense.MaxAbsDiff(got, want) != 0 {
		t.Fatal("Transpose does not match dense transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%15)+1, int(c8%15)+1
		m := randCSR(rng, r, c, 0.3)
		return Equal(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randCSR(rng, 10, 10, 0.4)
	blk := m.ExtractBlock(2, 7, 3, 9)
	want := m.ToDense().SubMatrix(2, 7, 3, 9)
	if dense.MaxAbsDiff(blk.ToDense(), want) != 0 {
		t.Fatal("ExtractBlock does not match dense SubMatrix")
	}
}

// Property: extracting a full grid of blocks and reassembling reproduces the
// matrix (the invariant 2D distribution relies on).
func TestBlockGridReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randCSR(rng, 12, 12, 0.3)
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {4, 3}, {12, 12}} {
		pr, pc := grid[0], grid[1]
		got := dense.New(12, 12)
		for i := 0; i < pr; i++ {
			for j := 0; j < pc; j++ {
				r0, r1 := i*12/pr, (i+1)*12/pr
				c0, c1 := j*12/pc, (j+1)*12/pc
				blk := m.ExtractBlock(r0, r1, c0, c1)
				got.SetSubMatrix(r0, c0, blk.ToDense())
			}
		}
		if dense.MaxAbsDiff(got, m.ToDense()) != 0 {
			t.Fatalf("grid %dx%d reassembly failed", pr, pc)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}})
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] != 1 {
		t.Fatal("Clone must not share value storage")
	}
}

func TestScale(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 2}, {1, 1, 4}})
	m.Scale(0.5)
	if m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("Scale failed: %v", m.ToDense())
	}
}

func TestRowNNZAndAvgDegree(t *testing.T) {
	m := NewCSR(4, 4, []Coord{{0, 0, 1}, {0, 1, 1}, {2, 3, 1}})
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.RowNNZ(2) != 1 {
		t.Fatal("RowNNZ wrong")
	}
	if m.AvgDegree() != 0.75 {
		t.Fatalf("AvgDegree = %v, want 0.75", m.AvgDegree())
	}
}

func TestEqualDifferentStructure(t *testing.T) {
	a := NewCSR(2, 2, []Coord{{0, 0, 1}})
	b := NewCSR(2, 2, []Coord{{0, 1, 1}})
	if Equal(a, b, 1e-9) {
		t.Fatal("Equal must compare structure")
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {20, 20, 8}, {31, 17, 5}} {
		a := randCSR(rng, dims[0], dims[1], 0.3)
		x := randDense(rng, dims[1], dims[2])
		got := dense.New(dims[0], dims[2])
		SpMM(got, a, x)
		want := dense.MulNaive(a.ToDense(), x)
		if dense.MaxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("SpMM(%v) mismatch: %v", dims, dense.MaxAbsDiff(got, want))
		}
	}
}

func TestSpMMTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randCSR(rng, 13, 9, 0.3)
	x := randDense(rng, 13, 4)
	got := dense.New(9, 4)
	NewTransposePlan(a).SpMMT(got, x)
	want := dense.MulNaive(a.ToDense().T(), x)
	if dense.MaxAbsDiff(got, want) > 1e-10 {
		t.Fatalf("SpMMT mismatch: %v", dense.MaxAbsDiff(got, want))
	}
}

func TestSpMMAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 6, 6, 0.4)
	x := randDense(rng, 6, 3)
	dst := randDense(rng, 6, 3)
	orig := dst.Clone()
	SpMMAdd(dst, a, x)
	want := dense.MulNaive(a.ToDense(), x)
	dense.Add(want, want, orig)
	if dense.MaxAbsDiff(dst, want) > 1e-10 {
		t.Fatal("SpMMAdd accumulation wrong")
	}
}

func TestSpMMFlops(t *testing.T) {
	a := NewCSR(3, 3, []Coord{{0, 0, 1}, {1, 2, 1}})
	if got := SpMMFlops(a, 10); got != 40 {
		t.Fatalf("SpMMFlops = %d, want 40", got)
	}
}

func TestSpMMDimensionPanics(t *testing.T) {
	a := NewCSR(3, 4, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpMM(dense.New(3, 2), a, dense.New(5, 2))
}

func TestNormalizeSymmetric(t *testing.T) {
	// Path graph 0-1-2 (undirected).
	a := NewCSR(3, 3, []Coord{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}})
	norm := NormalizeSymmetric(a)
	// A+I degrees: d0 = 2, d1 = 3, d2 = 2.
	want := dense.New(3, 3)
	deg := []float64{2, 3, 2}
	adj := a.ToDense()
	for i := 0; i < 3; i++ {
		adj.Set(i, i, 1)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want.Set(i, j, adj.At(i, j)/math.Sqrt(deg[i]*deg[j]))
		}
	}
	if dense.MaxAbsDiff(norm.ToDense(), want) > 1e-12 {
		t.Fatalf("NormalizeSymmetric mismatch:\n%v\nwant\n%v", norm.ToDense(), want)
	}
}

func TestNormalizeSymmetricIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Build a random symmetric pattern.
	var entries []Coord
	n := 20
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
			}
		}
	}
	norm := NormalizeSymmetric(NewCSR(n, n, entries))
	nt := norm.Transpose()
	if !Equal(norm, nt, 1e-12) {
		t.Fatal("normalized symmetric matrix should stay symmetric")
	}
}

func TestNormalizeSpectralRadius(t *testing.T) {
	// The symmetric normalization has eigenvalues in [-1, 1]; a power
	// iteration from a positive vector must not blow up.
	rng := rand.New(rand.NewSource(13))
	var entries []Coord
	n := 30
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
			}
		}
	}
	norm := NormalizeSymmetric(NewCSR(n, n, entries))
	v := dense.New(n, 1)
	v.Fill(1)
	out := dense.New(n, 1)
	for iter := 0; iter < 100; iter++ {
		SpMM(out, norm, v)
		// Renormalize so the dominant eigenvalue appears as the norm ratio.
		if s := out.Norm(); s > 0 && iter < 99 {
			out.Scale(1 / s)
		}
		v, out = out, v
	}
	// After renormalized power iteration, ||Av||/||v|| approximates the
	// spectral radius, which is exactly 1 for the Kipf-Welling normalization.
	if lambda := v.Norm(); lambda > 1.0+1e-9 {
		t.Fatalf("dominant eigenvalue estimate %v; spectral radius should be ≤ 1", lambda)
	}
}

func TestRowStochastic(t *testing.T) {
	a := NewCSR(3, 3, []Coord{{0, 0, 2}, {0, 1, 2}, {2, 2, 5}})
	rs := RowStochastic(a)
	if rs.At(0, 0) != 0.5 || rs.At(0, 1) != 0.5 || rs.At(2, 2) != 1 {
		t.Fatalf("RowStochastic wrong: %v", rs.ToDense())
	}
	// Row 1 is empty and must stay empty.
	if rs.RowNNZ(1) != 0 {
		t.Fatal("empty row must remain empty")
	}
}

func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	a := randCSR(rng, 2000, 2000, 0.005)
	x := randDense(rng, 2000, 64)
	dst := dense.New(2000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMM(dst, a, x)
	}
}
