//go:build !purego

package dense

import (
	"math"
	"math/rand"
	"testing"
)

// The lanes' exp and log against math.Exp and math.Log, four values a call
// through the probes expLanes and logLanes, which run the kernels' macros:
// every lane on math's fast path must carry its exact bits, and the lanes
// the probe reports off that path must be exactly those math leaves it on.

// ulpsFrom returns the float64 d steps from x in the order of the reals
// (both zeros one step).
func ulpsFrom(x float64, d int64) float64 {
	ordered := func(b int64) int64 {
		if b < 0 {
			return math.MinInt64 - b
		}
		return b
	}
	return math.Float64frombits(uint64(ordered(ordered(int64(math.Float64bits(x))) + d)))
}

// compareLanes runs probe on xs, four at a time, and fails on the first lane
// whose fast-path verdict differs from fast(x) or, on the fast path, whose
// bits differ from want(x). It returns how many lanes were on each side.
func compareLanes(t *testing.T, name string, probe func(*[4]float64) int, fast func(float64) bool, want func(float64) float64, xs []float64) (onPath, offPath int) {
	t.Helper()
	for i := 0; i < len(xs); i += 4 {
		var in, out [4]float64
		for l := range in {
			in[l] = xs[min(i+l, len(xs)-1)]
		}
		out = in
		slow := probe(&out)
		for l, x := range in {
			if off := slow>>l&1 == 1; off != !fast(x) {
				t.Fatalf("%s(%v = %#x): lane off the fast path %v, math %v", name, x, math.Float64bits(x), off, !fast(x))
			} else if off {
				offPath++
				continue
			}
			onPath++
			if w := want(x); math.Float64bits(out[l]) != math.Float64bits(w) {
				t.Fatalf("%s(%v = %#x) = %#x, math %#x", name, x, math.Float64bits(x), math.Float64bits(out[l]), math.Float64bits(w))
			}
		}
	}
	return onPath, offPath
}

// sweep returns every float64 within span steps of each center.
func sweep(span int64, centers ...float64) []float64 {
	var xs []float64
	for _, c := range centers {
		for d := -span; d <= span; d++ {
			xs = append(xs, ulpsFrom(c, d))
		}
	}
	return xs
}

// TestExpLanesMatchMath sweeps ±20 000 steps around exp's boundaries — 0;
// Overflow; where x·LOG2E rounds to 1024 and to −1023 (k leaving
// [−1022, 1023]); the smallest normal result; the smallest nonzero one —
// then a million random arguments in [−750, 750], then the special values.
func TestExpLanesMatchMath(t *testing.T) {
	if KernelISA() == "go" {
		t.Skip("no AVX2 and FMA on this CPU: the lanes never run")
	}
	xs := sweep(20000, 0, 7.09782712893384e+02, 1023.5*math.Ln2, -1022.5*math.Ln2, math.Log(0x1p-1022), -7.45133219101941108420e+02)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, 1500*rng.Float64()-750)
	}
	for _, b := range specialBits() {
		xs = append(xs, math.Float64frombits(b))
	}
	on, off := compareLanes(t, "exp", expLanes, expFast, math.Exp, xs)
	t.Logf("%d arguments on math.Exp's fast path, %d off it", on, off)
	if on == 0 || off == 0 {
		t.Fatal("the arguments no longer reach both sides of the fast path")
	}
}

// TestLogLanesMatchMath sweeps ±20 000 steps around 1, powers of two and
// √2/2 times powers of two, subnormal, normal and near the top; then takes
// every power of two and √2/2 times every one — a mantissa of exactly √2/2
// is where archLog's f1 ≤ √2/2 test decides, and only at 2^32 does a
// strict < change the result — then the special values.
func TestLogLanesMatchMath(t *testing.T) {
	if KernelISA() == "go" {
		t.Skip("no AVX2 and FMA on this CPU: the lanes never run")
	}
	const hsqrt2 = 7.07106781186547524401e-01
	var centers []float64
	for _, k := range []int{-1074, -1060, -1022, -1021, -2, -1, 0, 1, 2, 6, 52, 1023} {
		centers = append(centers, math.Ldexp(1, k), math.Ldexp(hsqrt2, k))
	}
	xs := append(sweep(20000, centers...), ulpsFrom(math.MaxFloat64, -1))
	for k := -1074; k <= 1023; k++ {
		xs = append(xs, math.Ldexp(1, k), math.Ldexp(hsqrt2, k))
	}
	for _, b := range specialBits() {
		xs = append(xs, math.Float64frombits(b))
	}
	fast := func(x float64) bool { return x > 0 && x < math.Inf(1) }
	on, off := compareLanes(t, "log", logLanes, fast, math.Log, xs)
	t.Logf("%d arguments on math.Log's fast path, %d off it", on, off)
	if on == 0 || off == 0 {
		t.Fatal("the arguments no longer reach both sides of the fast path")
	}
}
