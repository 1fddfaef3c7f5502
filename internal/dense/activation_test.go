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
func logSoftmaxBackwardFromZ[T Elem](dst, grad, z *Of[T]) {
	for i := 0; i < z.Rows; i++ {
		zrow, grow, drow := z.Row(i), grad.Row(i), dst.Row(i)
		lse := logSumExp(zrow)
		var gsum float64
		for _, g := range grow {
			gsum += float64(g)
		}
		for j := range drow {
			drow[j] = T(float64(grow[j]) - math.Exp(float64(zrow[j])-lse)*gsum)
		}
	}
}

// TestLogSoftmaxBackwardFromOutputExact: the backward sweep over the forward
// output y is bit-for-bit the recomputation from z in float64 — y[j] is the
// rounded z[j] − lse, the very number the old kernel passed to exp — over
// benign, large-magnitude, wide-spread and constant rows; it allocates
// nothing; and in float32, where y carries one extra rounding, it stays
// within an ulp-scale relative distance of the old kernel.
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

	z32, g32 := NewOf[float32](40, 9), NewOf[float32](40, 9)
	Convert(z32, z.RowSlice(0, 40))
	Convert(g32, grad.RowSlice(0, 40))
	y32, got32, want32 := NewOf[float32](40, 9), NewOf[float32](40, 9), NewOf[float32](40, 9)
	LogSoftmaxForwardOf(y32, z32)
	LogSoftmaxBackwardOf(got32, g32, y32)
	logSoftmaxBackwardFromZ(want32, g32, z32)
	for i := range got32.Data {
		if d := math.Abs(float64(got32.Data[i] - want32.Data[i])); d > 1e-5*(1+math.Abs(float64(want32.Data[i]))) {
			t.Fatalf("float32 element %d: backward from y = %v, from z = %v", i, got32.Data[i], want32.Data[i])
		}
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

// opaque is an Activation only the interface knows: no generic kernel is
// registered under its name.
type opaque struct{ ReLU }

func (opaque) Name() string { return "opaque" }

// TestForwardBackwardOf: float64 goes through the interface, so any
// Activation works there; float32 is served by the generic kernel of the
// same name — equal to converting the float64 result for the two
// element-wise ones — and an activation without one panics.
func TestForwardBackwardOf(t *testing.T) {
	z := FromRows([][]float64{{-1, 0.5, 2}, {3, -0.25, 0}})
	grad := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	var z32, grad32 *Of[float32]
	As(&z32, z)
	As(&grad32, grad)
	for _, act := range []Activation{ReLU{}, Identity{}, LogSoftmax{}, opaque{}} {
		y, want := New(2, 3), New(2, 3)
		ForwardOf(act, y, z)
		act.Forward(want, z)
		if MaxAbsDiff(y, want) != 0 {
			t.Fatalf("%s: ForwardOf differs from Forward at float64", act.Name())
		}
		g := New(2, 3)
		BackwardOf(act, g, grad, y)
		act.Backward(want, grad, y)
		if MaxAbsDiff(g, want) != 0 {
			t.Fatalf("%s: BackwardOf differs from Backward at float64", act.Name())
		}
		if act.Name() == "opaque" {
			func() {
				defer mustPanic(t, "ForwardOf float32 opaque")
				ForwardOf(act, NewOf[float32](2, 3), z32)
			}()
			func() {
				defer mustPanic(t, "BackwardOf float32 opaque")
				BackwardOf(act, NewOf[float32](2, 3), grad32, z32)
			}()
			continue
		}
		y32, g32 := NewOf[float32](2, 3), NewOf[float32](2, 3)
		ForwardOf(act, y32, z32)
		BackwardOf(act, g32, grad32, y32)
		if act.RowWise() {
			continue // log-softmax at float32 rounds differently; its kernels have their own tests
		}
		var y64, g64 *Matrix
		As(&y64, y32)
		As(&g64, g32)
		if MaxAbsDiff(y64, y) != 0 || MaxAbsDiff(g64, g) != 0 {
			t.Fatalf("%s: float32 result is not the float64 one", act.Name())
		}
	}
}

// reluOracle and reluMaskOracle state the ReLU rule as the plain loop does:
// the definition reluRow and reluMaskRow must reproduce bit for bit.
func reluOracle[T Elem](dst, z []T) {
	for i, v := range z {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluMaskOracle[T Elem](dst, grad, z []T) {
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
func compareReLURows[T Elem](t testing.TB, label string, z, grad []T) {
	t.Helper()
	check := func(kernel string, got, want []T) {
		t.Helper()
		for i := range want {
			if toBits(got[i]) != toBits(want[i]) {
				t.Fatalf("%s %s: element %d (z %#x, grad %#x): got %#x, want %#x",
					label, kernel, i, toBits(z[i]), toBits(grad[i]), toBits(got[i]), toBits(want[i]))
			}
		}
	}
	n := len(z)
	want, got := make([]T, n), make([]T, n)
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
func testReLURowsMatchRule[T Elem](t *testing.T) {
	special := specialBits[T]()
	var z, grad []T
	for _, zb := range special {
		for _, gb := range special {
			z, grad = append(z, fromBits[T](zb)), append(grad, fromBits[T](gb))
		}
	}
	compareReLURows(t, "special", z, grad)

	rng := rand.New(rand.NewSource(26))
	z, grad = make([]T, 1000), make([]T, 1000)
	for i := range z {
		z[i], grad[i] = T(rng.NormFloat64()), T(rng.NormFloat64())
	}
	compareReLURows(t, "random", z, grad)
}

func TestReLURowsMatchRule(t *testing.T) {
	t.Run("float64", testReLURowsMatchRule[float64])
	t.Run("float32", testReLURowsMatchRule[float32])
}

// FuzzReLURow reads z from raw bytes, for each element width, takes grad as
// z rotated by one element, and holds the row kernels to the oracles.
func FuzzReLURow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		z64, grad64 := fuzzRow[float64](data, 8)
		compareReLURows(t, "float64", z64, grad64)
		z32, grad32 := fuzzRow[float32](data, 4)
		compareReLURows(t, "float32", z32, grad32)
	})
}

// fuzzRow reads len(data)/width elements of width bytes each, little-endian,
// and returns them with their rotation by one.
func fuzzRow[T Elem](data []byte, width int) (z, grad []T) {
	z = make([]T, len(data)/width)
	for i := range z {
		var b uint64
		for j := 0; j < width; j++ {
			b |= uint64(data[i*width+j]) << (8 * j)
		}
		z[i] = fromBits[T](b)
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
