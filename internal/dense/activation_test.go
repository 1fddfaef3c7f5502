package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestReLUForward(t *testing.T) {
	z := FromRows([][]float64{{-1, 0, 2}, {3, -4, 0.5}})
	dst := New(2, 3)
	ReLU{}.Forward(dst, z)
	want := FromRows([][]float64{{0, 0, 2}, {3, 0, 0.5}})
	if !EqualWithin(dst, want, 0) {
		t.Fatalf("ReLU forward = %v, want %v", dst, want)
	}
}

func TestReLUBackward(t *testing.T) {
	z := FromRows([][]float64{{-1, 0, 2}})
	g := FromRows([][]float64{{10, 20, 30}})
	dst := New(1, 3)
	ReLU{}.Backward(dst, g, z)
	want := FromRows([][]float64{{0, 0, 30}})
	if !EqualWithin(dst, want, 0) {
		t.Fatalf("ReLU backward = %v, want %v", dst, want)
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	z := FromRows([][]float64{{1, -2}, {3, 4}})
	dst := New(2, 2)
	Identity{}.Forward(dst, z)
	if !EqualWithin(dst, z, 0) {
		t.Fatal("Identity forward should copy")
	}
	g := FromRows([][]float64{{5, 6}, {7, 8}})
	Identity{}.Backward(dst, g, z)
	if !EqualWithin(dst, g, 0) {
		t.Fatal("Identity backward should copy grad")
	}
}

func TestLogSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	z := randMatrix(rng, 10, 7)
	out := New(10, 7)
	LogSoftmax{}.Forward(out, z)
	for i := 0; i < out.Rows; i++ {
		var sum float64
		for _, v := range out.Row(i) {
			sum += math.Exp(v)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d: exp(log_softmax) sums to %v, want 1", i, sum)
		}
	}
}

func TestLogSoftmaxShiftInvariance(t *testing.T) {
	z := FromRows([][]float64{{1, 2, 3}})
	zs := FromRows([][]float64{{101, 102, 103}})
	a, b := New(1, 3), New(1, 3)
	LogSoftmax{}.Forward(a, z)
	LogSoftmax{}.Forward(b, zs)
	if MaxAbsDiff(a, b) > 1e-9 {
		t.Fatal("log_softmax must be invariant to constant row shifts")
	}
}

func TestLogSoftmaxStability(t *testing.T) {
	z := FromRows([][]float64{{1000, 1000, 1000}})
	out := New(1, 3)
	LogSoftmax{}.Forward(out, z)
	want := math.Log(1.0 / 3.0)
	for _, v := range out.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v-want) > 1e-9 {
			t.Fatalf("log_softmax overflowed: %v, want %v", v, want)
		}
	}
}

// numericalActGrad computes d(sum(grad .* act(z)))/dz[i,j] by central
// differences to validate Backward implementations.
func numericalActGrad(act Activation, z, grad *Matrix) *Matrix {
	const h = 1e-6
	out := New(z.Rows, z.Cols)
	eval := func(zz *Matrix) float64 {
		y := New(zz.Rows, zz.Cols)
		act.Forward(y, zz)
		var s float64
		for i := range y.Data {
			s += grad.Data[i] * y.Data[i]
		}
		return s
	}
	for i := range z.Data {
		zp := z.Clone()
		zm := z.Clone()
		zp.Data[i] += h
		zm.Data[i] -= h
		out.Data[i] = (eval(zp) - eval(zm)) / (2 * h)
	}
	return out
}

func TestLogSoftmaxBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	z := randMatrix(rng, 4, 5)
	grad := randMatrix(rng, 4, 5)
	got, y := New(4, 5), New(4, 5)
	LogSoftmax{}.Forward(y, z)
	LogSoftmax{}.Backward(got, grad, y)
	want := numericalActGrad(LogSoftmax{}, z, grad)
	if MaxAbsDiff(got, want) > 1e-5 {
		t.Fatalf("LogSoftmax backward differs from numerical gradient by %v", MaxAbsDiff(got, want))
	}
}

func TestReLUBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// Keep z away from 0 where ReLU is non-differentiable.
	z := New(4, 5)
	for i := range z.Data {
		v := rng.NormFloat64()
		if math.Abs(v) < 0.1 {
			v += math.Copysign(0.2, v)
		}
		z.Data[i] = v
	}
	grad := randMatrix(rng, 4, 5)
	got := New(4, 5)
	ReLU{}.Backward(got, grad, z)
	want := numericalActGrad(ReLU{}, z, grad)
	if MaxAbsDiff(got, want) > 1e-5 {
		t.Fatalf("ReLU backward differs from numerical gradient by %v", MaxAbsDiff(got, want))
	}
}

func TestRowWiseFlags(t *testing.T) {
	if (ReLU{}).RowWise() || (Identity{}).RowWise() {
		t.Fatal("elementwise activations must report RowWise() == false")
	}
	ls := LogSoftmax{}
	if !ls.RowWise() {
		t.Fatal("log_softmax must report RowWise() == true")
	}
}

// logSoftmaxBackwardFromZ is the backward kernel as it stood before it read
// the forward output: softmax recomputed from the pre-activation z, one
// log-sum-exp per row and exp(z − lse) per element. Kept as the oracle.
func logSoftmaxBackwardFromZ(dst, grad, z *Matrix) {
	for i := 0; i < z.Rows; i++ {
		zrow, grow, drow := z.Row(i), grad.Row(i), dst.Row(i)
		lse := logSumExp(zrow)
		var gsum float64
		for _, g := range grow {
			gsum += float64(g)
		}
		for j := range drow {
			drow[j] = grow[j] - math.Exp(zrow[j]-lse)*gsum
		}
	}
}

// TestLogSoftmaxBackwardFromOutputExact: the backward sweep over the forward
// output y is bit-for-bit the recomputation from z in float64 — y[j] is the
// rounded z[j] − lse, the very number the old kernel passed to exp — over
// benign, large-magnitude, wide-spread and constant rows; and it allocates
// nothing.
func TestLogSoftmaxBackwardFromOutputExact(t *testing.T) {
	useWorkers(t, 1)
	rng := rand.New(rand.NewSource(21))
	z, grad := New(44, 9), New(44, 9)
	for i := range z.Data {
		z.Data[i] = rng.NormFloat64()
		grad.Data[i] = rng.NormFloat64()
	}
	for j := 0; j < z.Cols; j++ {
		z.Set(40, j, 700+float64(j))      // exp overflows without the max shift
		z.Set(41, j, -745*float64(j))     // softmax underflows to 0 beyond j = 1
		z.Set(42, j, 3.25)                // uniform row
		z.Set(43, j, 1e-300*float64(j+1)) // near-zero spread
	}
	y, got, want := New(44, 9), New(44, 9), New(44, 9)
	LogSoftmax{}.Forward(y, z)
	LogSoftmax{}.Backward(got, grad, y)
	logSoftmaxBackwardFromZ(want, grad, z)
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: backward from y = %x, from z = %x", i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	if avg := testing.AllocsPerRun(10, func() {
		LogSoftmax{}.Backward(got, grad, y)
	}); avg != 0 {
		t.Fatalf("LogSoftmax.Backward allocates %.1f times per call, want 0", avg)
	}
}

// TestActivationsAllocFreeSerial: every activation kernel must be
// allocation-free on one worker (the inline fast paths).
func TestActivationsAllocFreeSerial(t *testing.T) {
	useWorkers(t, 1)
	z := New(32, 16)
	g := New(32, 16)
	dst, y := New(32, 16), New(32, 16)
	for _, act := range []Activation{ReLU{}, Identity{}, LogSoftmax{}} {
		if avg := testing.AllocsPerRun(10, func() {
			act.Forward(y, z)
			act.Backward(dst, g, y)
		}); avg != 0 {
			t.Fatalf("%s allocates %.1f times per sweep, want 0", act.Name(), avg)
		}
	}
}

// reluOracle and reluMaskOracle state the ReLU rule as the plain loop does:
// the definition reluRow and reluMaskRow must reproduce bit for bit.
func reluOracle(dst, z []float64) {
	for i, v := range z {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluMaskOracle(dst, grad, z []float64) {
	for i, v := range z {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

// compareReLURows runs both row kernels against the oracles on z and grad
// (equal lengths), into a fresh dst and with dst aliasing z (forward) or
// grad and z (mask), and fails on the first word whose bits differ. The
// inputs are left as they were.
func compareReLURows(t testing.TB, label string, z, grad []float64) {
	t.Helper()
	check := func(kernel string, got, want []float64) {
		t.Helper()
		for i := range want {
			if toBits(got[i]) != toBits(want[i]) {
				t.Fatalf("%s %s: element %d (z %#x, grad %#x): got %#x, want %#x",
					label, kernel, i, toBits(z[i]), toBits(grad[i]), toBits(got[i]), toBits(want[i]))
			}
		}
	}
	n := len(z)
	want, got := make([]float64, n), make([]float64, n)
	reluOracle(want, z)
	reluRow(got, z)
	check("forward", got, want)
	copy(got, z)
	reluRow(got, got)
	check("forward, dst = z", got, want)

	reluMaskOracle(want, grad, z)
	reluMaskRow(got, grad, z)
	check("mask", got, want)
	copy(got, grad)
	reluMaskRow(got, got, z)
	check("mask, dst = grad", got, want)
	reluMaskOracle(want, z, z)
	copy(got, z)
	reluMaskRow(got, got, got)
	check("mask, dst = grad = z", got, want)
}

// testReLURowsMatchRule meets every specialBits value, as z, with every one
// as grad — ±0, ±Inf, NaNs of both signs with payload 1 and others, the
// smallest subnormals, ±MaxFloat — and then random-sign normal draws.
func testReLURowsMatchRule(t *testing.T) {
	special := specialBits()
	var z, grad []float64
	for _, zb := range special {
		for _, gb := range special {
			z, grad = append(z, fromBits(zb)), append(grad, fromBits(gb))
		}
	}
	compareReLURows(t, "special", z, grad)

	rng := rand.New(rand.NewSource(26))
	z, grad = make([]float64, 1000), make([]float64, 1000)
	for i := range z {
		z[i], grad[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	compareReLURows(t, "random", z, grad)
}

func TestReLURowsMatchRule(t *testing.T) {
	t.Run("float64", testReLURowsMatchRule)
}

// FuzzReLURow reads z from raw bytes, takes grad as z rotated by one
// element, and holds the row kernels to the oracles.
func FuzzReLURow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		z, grad := fuzzRow(data)
		compareReLURows(t, "float64", z, grad)
	})
}

// fuzzRow reads len(data)/8 elements of eight bytes each, little-endian,
// and returns them with their rotation by one.
func fuzzRow(data []byte) (z, grad []float64) {
	z = make([]float64, len(data)/8)
	for i := range z {
		var b uint64
		for j := 0; j < 8; j++ {
			b |= uint64(data[i*8+j]) << (8 * j)
		}
		z[i] = math.Float64frombits(b)
	}
	if len(z) == 0 {
		return z, z
	}
	return z, append(z[1:len(z):len(z)], z[0])
}

// reluBenchShapes are activation shapes of the workloads' hidden layers on
// one rank.
var reluBenchShapes = []struct{ n, f int }{{4096, 16}, {4096, 32}, {8192, 64}}

// benchReLU times one ReLU pass at each shape, single threaded (one
// worker), over inputs whose signs are random: all-positive data would let
// a branch predict every element. It reports ns per element and must report
// 0 B/op.
func benchReLU(b *testing.B, pass func(dst, grad, z *Matrix)) {
	useWorkers(b, 1)
	for _, s := range reluBenchShapes {
		rng := rand.New(rand.NewSource(27))
		z, grad, dst := randMatrix(rng, s.n, s.f), randMatrix(rng, s.n, s.f), New(s.n, s.f)
		b.Run(fmt.Sprintf("%dx%d", s.n, s.f), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				pass(dst, grad, z)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.n*s.f), "ns/element")
		})
	}
}

func BenchmarkReLU(b *testing.B) {
	benchReLU(b, func(dst, _, z *Matrix) { ReLU{}.Forward(dst, z) })
}

func BenchmarkReLUMask(b *testing.B) {
	benchReLU(b, func(dst, grad, z *Matrix) { ReLU{}.Backward(dst, grad, z) })
}
