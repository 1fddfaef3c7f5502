package dense

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {64, 64, 64}, {65, 130, 33}, {128, 1, 128}} {
		a := randMatrix(rng, dims[0], dims[1])
		b := randMatrix(rng, dims[1], dims[2])
		got := New(dims[0], dims[2])
		Mul(got, a, b)
		want := MulNaive(a, b)
		if MaxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("Mul(%v) diverges from naive by %v", dims, MaxAbsDiff(got, want))
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 5, 6)
	b := randMatrix(rng, 6, 4)
	dst := randMatrix(rng, 5, 4)
	orig := dst.Clone()
	MulAdd(dst, a, b)
	want := MulNaive(a, b)
	Add(want, want, orig)
	if MaxAbsDiff(dst, want) > 1e-10 {
		t.Fatalf("MulAdd mismatch: %v", MaxAbsDiff(dst, want))
	}
}

func TestMulTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 6, 5)
	b := randMatrix(rng, 7, 5) // b^T is 5x7
	got := New(6, 7)
	MulT(got, a, b)
	want := MulNaive(a, b.T())
	if MaxAbsDiff(got, want) > 1e-10 {
		t.Fatalf("MulT mismatch: %v", MaxAbsDiff(got, want))
	}
}

func TestTMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 8, 3) // a^T is 3x8
	b := randMatrix(rng, 8, 4)
	got := New(3, 4)
	TMul(got, a, b)
	want := MulNaive(a.T(), b)
	if MaxAbsDiff(got, want) > 1e-10 {
		t.Fatalf("TMul mismatch: %v", MaxAbsDiff(got, want))
	}
}

func TestTMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 8, 3)
	b := randMatrix(rng, 8, 4)
	dst := randMatrix(rng, 3, 4)
	orig := dst.Clone()
	TMulAdd(dst, a, b)
	want := MulNaive(a.T(), b)
	Add(want, want, orig)
	if MaxAbsDiff(dst, want) > 1e-10 {
		t.Fatalf("TMulAdd mismatch: %v", MaxAbsDiff(dst, want))
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer mustPanic(t, "inner dim mismatch")
	Mul(New(2, 2), New(2, 3), New(4, 2))
}

func TestMulDstShapePanics(t *testing.T) {
	defer mustPanic(t, "dst shape mismatch")
	Mul(New(3, 3), New(2, 3), New(3, 2))
}

func TestMulTDimensionMismatchPanics(t *testing.T) {
	defer mustPanic(t, "MulT inner dim")
	MulT(New(2, 2), New(2, 3), New(2, 4))
}

func TestTMulDimensionMismatchPanics(t *testing.T) {
	defer mustPanic(t, "TMul inner dim")
	TMul(New(3, 4), New(2, 3), New(3, 4))
}

// Property: (AB)^T == B^T A^T.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n8, k8, m8 uint8) bool {
		n, k, m := int(n8%12)+1, int(k8%12)+1, int(m8%12)+1
		a := randMatrix(rng, n, k)
		b := randMatrix(rng, k, m)
		ab := New(n, m)
		Mul(ab, a, b)
		btat := New(m, n)
		Mul(btat, b.T(), a.T())
		return MaxAbsDiff(ab.T(), btat) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: A(B+C) == AB + AC (distributivity).
func TestMulDistributivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n8, k8, m8 uint8) bool {
		n, k, m := int(n8%10)+1, int(k8%10)+1, int(m8%10)+1
		a := randMatrix(rng, n, k)
		b := randMatrix(rng, k, m)
		c := randMatrix(rng, k, m)
		bc := New(k, m)
		Add(bc, b, c)
		lhs := New(n, m)
		Mul(lhs, a, bc)
		ab := New(n, m)
		Mul(ab, a, b)
		ac := New(n, m)
		Mul(ac, a, c)
		rhs := New(n, m)
		Add(rhs, ab, ac)
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 9, 9)
	got := New(9, 9)
	Mul(got, a, Eye(9))
	if MaxAbsDiff(got, a) > 1e-12 {
		t.Fatal("A*I != A")
	}
	Mul(got, Eye(9), a)
	if MaxAbsDiff(got, a) > 1e-12 {
		t.Fatal("I*A != A")
	}
}

// gemmBenchShapes are the workloads' products, n × k × m: serial_wide's
// widest layer, bcast1d_sparse's two layers on one rank, and two of
// summa2d_dense's 8–21-column blocks.
var gemmBenchShapes = []struct{ n, k, m int }{
	{8192, 256, 64},
	{4096, 128, 16},
	{4096, 16, 8},
	{4096, 32, 8},
	{4096, 16, 21},
}

// BenchmarkGEMM times the three products of a layer at each shape, single
// threaded (serial backend), as the trainer calls them: Mul is X·W (n×k by
// k×m), TMul the weight gradient Xᵀ·G (k×m) and MulT the input gradient
// G·Wᵀ (n×k). All three are 2nkm flops; each must report 0 B/op.
func BenchmarkGEMM(b *testing.B) {
	release := parallel.AcquireBackend(parallel.BackendSerial)
	defer release()
	for _, s := range gemmBenchShapes {
		rng := rand.New(rand.NewSource(11))
		x, w, g := randOf[float64](rng, s.n, s.k), randOf[float64](rng, s.k, s.m), randOf[float64](rng, s.n, s.m)
		z, dW, dH := New(s.n, s.m), New(s.k, s.m), New(s.n, s.k)
		for _, kernel := range []struct {
			name string
			run  func()
		}{
			{"Mul", func() { Mul(z, x, w) }},
			{"TMul", func() { TMul(dW, x, g) }},
			{"MulT", func() { MulT(dH, g, w) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kernel.name, s.n, s.k, s.m), func(b *testing.B) {
				kernel.run() // MulT's first call fills the pool it packs Wᵀ into
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel.run()
				}
				b.ReportMetric(float64(gemmFlops(s.n, s.k, s.m))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
