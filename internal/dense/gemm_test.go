package dense

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
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

// TestAxpyShortSourcePanics pins AxpyRow's length check: a source whose
// capacity is below len(dst) panics before a single element of dst is
// written.
func TestAxpyShortSourcePanics(t *testing.T) {
	long := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	dst := make([]float64, 9)
	func() {
		defer mustPanic(t, "a source shorter than dst")
		AxpyRow(dst, 2, long[:8:8])
	}()
	for j, d := range dst {
		if d != 0 {
			t.Errorf("dst[%d] = %v written before the panic", j, d)
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

// gemmBenchShapes are the workloads' layers, n × f^{l-1} × f^l: serial_wide's
// two (8192 × 256 × 64, 8192 × 64 × 32), bcast1d_sparse's and halo1d_ldg's
// on one rank, then two of summa2d_dense's 8–21-column blocks, whose ReLU
// products are not the mesh's hot spot.
var gemmBenchShapes = []struct {
	n, k, m int
	relu    bool // the ReLU-operand products run at this shape too
}{
	{8192, 256, 64, true},
	{8192, 64, 32, true},
	{4096, 128, 16, true},
	{4096, 16, 8, true},
	{4096, 128, 32, true},
	{4096, 32, 16, true},
	{4096, 32, 8, false},
	{4096, 16, 21, false},
}

// benchOperand fills an r×c matrix with normal draws, no zeros among them,
// or — reluZeros — their ReLU, about half of it exact +0: the two operands a
// trainer hands the products, an aggregate or a ReLU layer's output.
func benchOperand(rng *rand.Rand, r, c int, reluZeros bool) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if reluZeros {
			m.Data[i] = max(m.Data[i], 0)
		}
	}
	return m
}

// BenchmarkGEMM times a layer's products at each shape, single threaded
// (one worker), on the operands the trainer hands them. On dense
// operands: Mul is X·W (n×k by k×m), TMul the weight gradient Xᵀ·G (k×m)
// and MulT the input gradient G·Wᵀ (n×k). On a ReLU layer's operands, half
// zeros, as the engine routes them: MulNZ is H·W and TMulNZ Hᵀ·G over H's
// nonzeros (a multiply-first layer after a ReLU), TMulByNZ Tᵀ·G over G's
// nonzeros, transposed from Gᵀ·T (an aggregate-first ReLU layer), each
// beside the dense product it replaces on the same operands. Every one is
// 2nkm flops counting the zeros; each must report 0 B/op. It times the
// installed tile bodies, the ones KernelISA names; to compare two bodies,
// run it from two builds that install each. This sweep, with 32- and
// 64-column strips at -test.cpu 1, picked 64 columns for the AVX-512
// bodies: the same time at widths ≤ 32, where both run the same code, and
// faster above.
func BenchmarkGEMM(b *testing.B) {
	useWorkers(b, 1)
	for _, s := range gemmBenchShapes {
		rng := rand.New(rand.NewSource(11))
		x, w, g := benchOperand(rng, s.n, s.k, false), benchOperand(rng, s.k, s.m, false), benchOperand(rng, s.n, s.m, false)
		h, gz := benchOperand(rng, s.n, s.k, true), benchOperand(rng, s.n, s.m, true)
		z, dW, dWt, dH := New(s.n, s.m), New(s.k, s.m), New(s.m, s.k), New(s.n, s.k)
		type kernel struct {
			name string
			run  func()
		}
		kernels := []kernel{
			{"dense/Mul", func() { Mul(z, x, w) }},
			{"dense/TMul", func() { TMul(dW, x, g) }},
			{"dense/MulT", func() { MulT(dH, g, w) }},
		}
		if s.relu {
			kernels = append(kernels,
				kernel{"relu/Mul", func() { Mul(z, h, w) }},
				kernel{"relu/MulNZ", func() { MulNZ(z, h, w) }},
				kernel{"relu/TMul", func() { TMul(dW, h, g) }},
				kernel{"relu/TMulNZ", func() { TMulNZ(dW, h, g) }},
				kernel{"relu/TMulG", func() { TMul(dW, x, gz) }},
				kernel{"relu/TMulByNZ", func() { TMulNZ(dWt, gz, x); dWt.TransposeInto(dW) }},
			)
		}
		for _, kn := range kernels {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kn.name, s.n, s.k, s.m), func(b *testing.B) {
				kn.run() // MulT's and the NZ products' first calls fill the pools they draw scratch from
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kn.run()
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms")
				b.ReportMetric(float64(gemmFlops(s.n, s.k, s.m))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
