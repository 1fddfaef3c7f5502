package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected values: %v", m)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows = %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer mustPanic(t, "ragged rows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer mustPanic(t, "short slice")
	FromSlice(2, 2, []float64{1, 2, 3})
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

func TestEye(t *testing.T) {
	m := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer mustPanic(t, "out-of-range At")
	m.At(2, 0)
}

func TestRowIsView(t *testing.T) {
	m := New(2, 3)
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must return a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer mustPanic(t, "shape mismatch")
	New(2, 2).CopyFrom(New(2, 3))
}

func TestSubMatrixAndSet(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	sub := m.SubMatrix(1, 3, 1, 3)
	want := FromRows([][]float64{{6, 7}, {10, 11}})
	if !EqualWithin(sub, want, 0) {
		t.Fatalf("SubMatrix = %v, want %v", sub, want)
	}
	m.SetSubMatrix(0, 2, FromRows([][]float64{{-1, -2}}))
	if m.At(0, 2) != -1 || m.At(0, 3) != -2 {
		t.Fatalf("SetSubMatrix failed: %v", m)
	}
}

func TestRowSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	rs := m.RowSlice(1, 3)
	if !EqualWithin(rs, FromRows([][]float64{{4, 5, 6}, {7, 8, 9}}), 0) {
		t.Fatalf("RowSlice = %v", rs)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !EqualWithin(mt, want, 0) {
		t.Fatalf("T() = %v, want %v", mt, want)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%20)+1, int(c8%20)+1
		m := randMatrix(rng, r, c)
		return EqualWithin(m.T().T(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := New(2, 2)
	Add(dst, a, b)
	if !EqualWithin(dst, FromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if !EqualWithin(dst, FromRows([][]float64{{4, 4}, {4, 4}}), 0) {
		t.Fatalf("Sub = %v", dst)
	}
}

func TestAXPYAndScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 10}, {10, 10}})
	AXPY(b, 2, a)
	if !EqualWithin(b, FromRows([][]float64{{12, 14}, {16, 18}}), 0) {
		t.Fatalf("AXPY = %v", b)
	}
	b.Scale(0.5)
	if !EqualWithin(b, FromRows([][]float64{{6, 7}, {8, 9}}), 0) {
		t.Fatalf("Scale = %v", b)
	}
}

func TestNormAndMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if got := m.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.5, 1}})
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
}

func TestEqualWithinShapeMismatch(t *testing.T) {
	if EqualWithin(New(1, 2), New(2, 1), 100) {
		t.Fatal("EqualWithin must reject different shapes")
	}
}

func TestGlorotInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(30, 40)
	m.GlorotInit(rng)
	bound := math.Sqrt(6.0 / 70.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("Glorot value %v exceeds bound %v", v, bound)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatalf("Glorot init produced too many zeros: %d/%d nonzero", nonzero, len(m.Data))
	}
}

func TestZeroAndFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatalf("Fill failed: %v", m)
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatalf("Zero failed: %v", m)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if s := small.String(); s == "" {
		t.Fatal("empty String for small matrix")
	}
	large := New(100, 100)
	if s := large.String(); s != "dense.Matrix(100x100)" {
		t.Fatalf("large String = %q", s)
	}
}

func mustPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
