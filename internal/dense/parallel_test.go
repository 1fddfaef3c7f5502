package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// useWorkers sets the shared pool to n workers for the rest of the test or
// benchmark, restoring the previous count when it ends.
func useWorkers(tb testing.TB, n int) {
	prev := parallel.Workers()
	parallel.SetWorkers(n)
	tb.Cleanup(func() { parallel.SetWorkers(prev) })
}

// withWorkers computes the same kernel on one worker and on seven (enough
// to force real partitioning) and hands both results to check.
func withWorkers(t *testing.T, compute func() *Matrix, check func(serial, par *Matrix)) {
	t.Helper()
	useWorkers(t, 1)
	serial := compute()
	useWorkers(t, 7)
	par := compute()
	check(serial, par)
}

// requireBitIdentical fails unless a and b match bit for bit.
func requireBitIdentical(t *testing.T, serial, par *Matrix) {
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

func randn(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// gemmShapes covers the trainer-shaped products plus degenerate edges;
// larger cases clear the parallel dispatch threshold, including k spans
// crossing multiple cache blocks.
var gemmShapes = []struct{ n, k, m int }{
	{0, 0, 0},
	{1, 1, 1},
	{1, 500, 40}, // 1xN
	{500, 1, 40}, // Nx1 inner
	{400, 40, 1}, // single output column
	{200, 130, 60},
	{300, 200, 33},
}

func TestMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range gemmShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m), func(t *testing.T) {
			a, b := randn(rng, s.n, s.k), randn(rng, s.k, s.m)
			withWorkers(t, func() *Matrix {
				dst := New(s.n, s.m)
				Mul(dst, a, b)
				return dst
			}, func(serial, par *Matrix) {
				requireBitIdentical(t, serial, par)
			})
		})
	}
}

func TestMulAddParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a, b := randn(rng, 250, 170), randn(rng, 170, 45)
	init := randn(rng, 250, 45)
	withWorkers(t, func() *Matrix {
		dst := init.Clone()
		MulAdd(dst, a, b)
		return dst
	}, func(serial, par *Matrix) {
		requireBitIdentical(t, serial, par)
	})
}

func TestMulTParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, s := range gemmShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m), func(t *testing.T) {
			a, b := randn(rng, s.n, s.k), randn(rng, s.m, s.k)
			withWorkers(t, func() *Matrix {
				dst := New(s.n, s.m)
				MulT(dst, a, b)
				return dst
			}, func(serial, par *Matrix) {
				requireBitIdentical(t, serial, par)
			})
		})
	}
}

func TestTMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, s := range gemmShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m), func(t *testing.T) {
			a, b := randn(rng, s.k, s.n), randn(rng, s.k, s.m)
			withWorkers(t, func() *Matrix {
				dst := New(s.n, s.m)
				TMul(dst, a, b)
				return dst
			}, func(serial, par *Matrix) {
				requireBitIdentical(t, serial, par)
			})
		})
	}
}

func TestActivationsParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	acts := []Activation{ReLU{}, Identity{}, LogSoftmax{}}
	shapes := []struct{ n, f int }{{1, 1}, {1, 700}, {700, 1}, {400, 90}}
	for _, act := range acts {
		for _, s := range shapes {
			t.Run(fmt.Sprintf("%s/%dx%d", act.Name(), s.n, s.f), func(t *testing.T) {
				z := randn(rng, s.n, s.f)
				grad := randn(rng, s.n, s.f)
				withWorkers(t, func() *Matrix {
					dst := New(s.n, s.f)
					act.Forward(dst, z)
					return dst
				}, func(serial, par *Matrix) {
					requireBitIdentical(t, serial, par)
				})
				withWorkers(t, func() *Matrix {
					dst := New(s.n, s.f)
					act.Backward(dst, grad, z)
					return dst
				}, func(serial, par *Matrix) {
					requireBitIdentical(t, serial, par)
				})
			})
		}
	}
}

// TestMulParallelMatchesNaive cross-checks the parallel blocked kernel
// against the naive triple loop within tolerance (the naive loop uses a
// different accumulation order).
func TestMulParallelMatchesNaive(t *testing.T) {
	useWorkers(t, 7)
	rng := rand.New(rand.NewSource(43))
	a, b := randn(rng, 180, 140), randn(rng, 140, 70)
	dst := New(180, 70)
	Mul(dst, a, b)
	want := MulNaive(a, b)
	if !EqualWithin(dst, want, 1e-9) {
		t.Fatalf("parallel Mul deviates from naive reference by %g", MaxAbsDiff(dst, want))
	}
}

// fusedShapes straddle the parallel cut-off (2·n·k·m against 1<<15), the
// four-source remainder of the k sweep (k mod 4 = 0..3) and the 64-wide
// cache block in both n and k.
var fusedShapes = []struct{ n, k, m int }{
	{1, 1, 1},
	{3, 4, 5},
	{16, 31, 33}, // 32 736 flops: just under the cut-off, k mod 4 = 3
	{16, 32, 33}, // 33 792 flops: just over it, k mod 4 = 0
	{70, 66, 9},  // rows and k each cross a cache block, k mod 4 = 2
	{130, 69, 40},
}

// eachWorkerCount runs body as subtest "serial" on one worker and as
// "parallel" on seven, enough to force real partitioning.
func eachWorkerCount(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, c := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 7}} {
		useWorkers(t, c.workers)
		t.Run(c.name, body)
	}
}

// randWithZeros fills an r×c matrix with normal draws, a few of them
// replaced by exact zeros (the GEMM sweeps skip zero scales; the ReLU mask
// treats 0 as dead).
func randWithZeros(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		if rng.Intn(9) == 0 {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// setRowSign makes row i of m all negative (sign < 0) or all positive.
func setRowSign(m *Matrix, i int, sign float64) {
	if i >= m.Rows {
		return
	}
	for j, v := range m.Row(i) {
		m.Row(i)[j] = sign * (math.Abs(v) + 1)
	}
}

// requireSameBits fails unless got and want match bit for bit, signed
// zeros included.
func requireSameBits(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(float64(got.Data[i])) != math.Float64bits(float64(want.Data[i])) {
			t.Fatalf("element (%d,%d) = %v, want %v", i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestMulBiasReLUMatchesSeparatePasses: the fused forward epilogue is
// Mul, then the bias broadcast, then ReLU.Forward, bit for bit.
func TestMulBiasReLUMatchesSeparatePasses(t *testing.T) {
	t.Run("float64", testMulBiasReLU)
}

func testMulBiasReLU(t *testing.T) {
	eachWorkerCount(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, s := range fusedShapes {
			for _, withBias := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dx%dx%d/bias=%v", s.n, s.k, s.m, withBias), func(t *testing.T) {
					a, b := randWithZeros(rng, s.n, s.k), randWithZeros(rng, s.k, s.m)
					// Against a nonnegative b, row 0 of a·b is all dead and
					// row 1 all live (before the bias moves them).
					for i := range b.Data {
						b.Data[i] = math.Abs(b.Data[i])
					}
					setRowSign(a, 0, -1)
					setRowSign(a, 1, +1)
					var bias []float64
					if withBias {
						bias = randWithZeros(rng, 1, s.m).Data
					}

					want := New(s.n, s.m)
					Mul(want, a, b)
					for i := 0; i < s.n && bias != nil; i++ {
						for j := range bias {
							want.Row(i)[j] += bias[j]
						}
					}
					ReLU{}.Forward(want, want)

					got := New(s.n, s.m)
					got.Fill(7) // MulBiasReLU overwrites dst
					MulBiasReLU(got, a, b, bias)
					requireSameBits(t, got, want)
				})
			}
		}
	})
}

// TestMulTReLUMaskMatchesSeparatePasses: the fused backward epilogue is
// MulT followed by ReLU.Backward masked on h, bit for bit — for rows of h
// that are all dead (≤ 0, exact zeros included), all live, and mixed.
func TestMulTReLUMaskMatchesSeparatePasses(t *testing.T) {
	t.Run("float64", testMulTReLUMask)
}

func testMulTReLUMask(t *testing.T) {
	eachWorkerCount(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for _, s := range fusedShapes {
			t.Run(fmt.Sprintf("%dx%dx%d", s.n, s.k, s.m), func(t *testing.T) {
				g, w, h := randWithZeros(rng, s.n, s.k), randWithZeros(rng, s.m, s.k), randWithZeros(rng, s.n, s.m)
				setRowSign(h, 0, -1)
				h.Row(0)[0] = 0 // a zero is dead too
				setRowSign(h, 1, +1)

				full := New(s.n, s.m)
				MulT(full, g, w)
				want := New(s.n, s.m)
				ReLU{}.Backward(want, full, h)

				got := New(s.n, s.m)
				got.Fill(7) // dead units must be written, not skipped
				MulTReLUMask(got, g, w, h)
				requireSameBits(t, got, want)
			})
		}
	})
}
