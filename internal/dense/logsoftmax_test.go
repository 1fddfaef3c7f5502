package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests below pin the row-lane log-softmax to the Go loops it replays,
// bit for bit, at every group tail: row counts 1–9 (no whole group, one,
// two, and every remainder) and widths 1–70. They run on whatever the
// platform selects; where that is the Go loops alone they still check the
// split of each row range into groups, and aliasing.

// expFast reports whether math.Exp(x) takes its normal path on amd64
// (exp_amd64.s): x finite and at most Overflow, and k = x·LOG2E rounded to
// nearest in [−1022, 1023], so that k + 1023 is in (0, 0x7FF).
func expFast(x float64) bool {
	const overflow = 7.09782712893384e+02
	if math.IsNaN(x) || math.IsInf(x, 0) || x > overflow {
		return false
	}
	k := math.RoundToEven(x * math.Log2E)
	return k >= -1022 && k <= 1023
}

// laneGroups marks the rows a serial sweep runs on the lanes: those of each
// whole group of four from row 0 whose exp arguments all take math.Exp's
// normal path — the forward's v − max (the log argument is then in
// [1, cols]), the backward's y.
func laneGroups(rows, cols int, args func(r int) []float64) []bool {
	lane := make([]bool, rows)
	if KernelISA() == "go" {
		return lane
	}
	for g := 0; g+4 <= rows; g += 4 {
		fast := true
		for r := g; r < g+4; r++ {
			for _, x := range args(r) {
				fast = fast && expFast(x)
			}
		}
		for r := g; r < g+4; r++ {
			lane[r] = fast
		}
	}
	return lane
}

// backwardModel is logSoftmaxBackwardRows on one row with x86's NaN rule
// written out for gsum + g in the lanes' operand order, gsum first: the
// payload where two NaNs meet, which in the Go loop is the compiler's choice
// (see twoNaNsMeet; a -race build adds them the other way round). It
// reports whether two NaNs met there.
func backwardModel(drow, grow, yrow []float64) (twoNaNs bool) {
	var gsum float64
	for _, g := range grow {
		twoNaNs = twoNaNs || nansDiffer(gsum, float64(g))
		gsum = x86Op(gsum, float64(g), func(s, g float64) float64 { return s + g })
	}
	for j := range drow {
		drow[j] = grow[j] - math.Exp(yrow[j])*gsum
	}
	return twoNaNs
}

// lsmCounts tallies what a comparison reached.
type lsmCounts struct {
	laneRows, goRows, nanRows int // backward rows on each path; lane rows where two NaNs met in gsum
}

// compareLogSoftmax runs LogSoftmax.Forward on z and LogSoftmax.Backward on
// grad and y (rows × cols) on one worker, into a sentinel-padded dst and with dst aliasing z, grad and y, and fails unless
// every result word is the Go loops' (RefLogSoftmax*) — on a lane row where
// two NaNs meet in gsum, the model's — nothing outside dst is written and
// no source changes.
func compareLogSoftmax(t testing.TB, label string, rows, cols int, z, grad, y []float64) (n lsmCounts) {
	t.Helper()
	useWorkers(t, 1)
	const pad = 5
	sentinel := fromBits(0x7ff4_dead_beef_0001)
	of := func(data []float64) *Matrix { return FromSlice(rows, cols, append([]float64(nil), data...)) }
	zm, gm, ym := of(z), of(grad), of(y)
	check := func(kernel string, got, want *Matrix) {
		t.Helper()
		for i := range want.Data {
			if toBits(got.Data[i]) != toBits(want.Data[i]) {
				t.Fatalf("%s %s: element (%d,%d): got %#x (%v), want %#x (%v)", label, kernel,
					i/cols, i%cols, toBits(got.Data[i]), got.Data[i], toBits(want.Data[i]), want.Data[i])
			}
		}
	}
	padded := func() (*Matrix, []float64) {
		buf := make([]float64, pad+rows*cols+pad)
		for i := range buf {
			buf[i] = sentinel
		}
		return FromSlice(rows, cols, buf[pad:pad+rows*cols]), buf
	}
	checkPad := func(kernel string, buf []float64) {
		t.Helper()
		for i := range buf {
			if (i < pad || i >= pad+rows*cols) && toBits(buf[i]) != toBits(sentinel) {
				t.Fatalf("%s %s: wrote %v outside dst", label, kernel, buf[i])
			}
		}
	}

	want := New(rows, cols)
	RefLogSoftmaxForward(want, zm)
	got, buf := padded()
	LogSoftmax{}.Forward(got, zm)
	check("forward", got, want)
	checkPad("forward", buf)
	got = of(z)
	LogSoftmax{}.Forward(got, got)
	check("forward, dst = z", got, want)

	RefLogSoftmaxBackward(want, gm, ym)
	lane := laneGroups(rows, cols, func(r int) []float64 {
		args := make([]float64, cols)
		for j, v := range ym.Row(r) {
			args[j] = float64(v)
		}
		return args
	})
	for r := 0; r < rows; r++ {
		if !lane[r] {
			n.goRows++
			continue
		}
		n.laneRows++
		model := make([]float64, cols)
		if backwardModel(model, gm.Row(r), ym.Row(r)) {
			n.nanRows++
			copy(want.Row(r), model)
		}
	}
	got, buf = padded()
	LogSoftmax{}.Backward(got, gm, ym)
	check("backward", got, want)
	checkPad("backward", buf)
	got = of(grad)
	LogSoftmax{}.Backward(got, got, ym)
	check("backward, dst = grad", got, want)
	got = of(y)
	LogSoftmax{}.Backward(got, gm, got)
	check("backward, dst = y", got, want)

	for _, src := range []struct {
		name      string
		got, want []float64
	}{{"z", zm.Data, z}, {"grad", gm.Data, grad}, {"y", ym.Data, y}} {
		for i := range src.want {
			if toBits(src.got[i]) != toBits(src.want[i]) {
				t.Fatalf("%s: source %s word %d was written", label, src.name, i)
			}
		}
	}
	return n
}

// randomNaN is a NaN of either sign with a random nonzero payload, quiet or
// signalling.
func randomNaN(rng *rand.Rand) float64 {
	return fromBits(uint64(rng.Intn(2))<<63 | 0x7ff0000000000000 | uint64(1+rng.Int63n(1<<52-1)))
}

// testLogSoftmaxRows draws each row of z in one of four kinds — N(0, 3²)
// logits; half of them specialBits or random NaNs; the spread −745·j, whose
// exps underflow past the first column; 700 + j, which overflows without
// the max shift — and grad half from specialBits and random NaNs, so that
// NaN payloads meet in gsum. y is the forward's output of z, or z itself in
// alternate cases (positive arguments, and exps past Overflow).
func testLogSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	special := specialBits()
	odd := func() float64 {
		if rng.Intn(4) == 0 {
			return randomNaN(rng)
		}
		return fromBits(special[rng.Intn(len(special))])
	}
	var total lsmCounts
	c := 0
	for cols := 1; cols <= 70; cols++ {
		for rows := 1; rows <= 9; rows++ {
			c++
			z, grad := make([]float64, rows*cols), make([]float64, rows*cols)
			for r := 0; r < rows; r++ {
				kind := rng.Intn(10)
				for j := 0; j < cols; j++ {
					v := 3 * rng.NormFloat64()
					switch {
					case kind == 0 && rng.Intn(2) == 0:
						v = odd()
					case kind == 1:
						v = -745*float64(j) + rng.Float64()
					case kind == 2:
						v = 700 + float64(j)
					}
					z[r*cols+j] = v
				}
			}
			for i := range grad {
				grad[i] = rng.NormFloat64()
				if rng.Intn(2) == 0 {
					grad[i] = odd()
				}
			}
			y := z
			if c%2 == 0 {
				ym := New(rows, cols)
				RefLogSoftmaxForward(ym, FromSlice(rows, cols, z))
				y = ym.Data
			}
			n := compareLogSoftmax(t, fmt.Sprintf("rows=%d cols=%d", rows, cols), rows, cols, z, grad, y)
			total.laneRows += n.laneRows
			total.goRows += n.goRows
			total.nanRows += n.nanRows
		}
	}
	if KernelISA() != "go" && (total.laneRows == 0 || total.nanRows == 0) {
		t.Fatalf("lane rows %d, of them with NaNs meeting in gsum %d: the value mix no longer reaches the lanes", total.laneRows, total.nanRows)
	}
	if total.goRows == 0 {
		t.Fatal("no row ran on the Go loop: the value mix no longer reaches a fallback")
	}
}

func TestLogSoftmaxRowsMatchGo(t *testing.T) {
	t.Run("float64", testLogSoftmaxRows)
}

// FuzzLogSoftmaxRows reads z, grad and y from raw bits, cyclically from
// data, at rows%10 rows and cols%71+1 columns, and holds the kernels to the
// Go loops as TestLogSoftmaxRowsMatchGo does.
func FuzzLogSoftmaxRows(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{})
	f.Add(uint8(4), uint8(7), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0xbf})
	f.Add(uint8(9), uint8(40), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0x48, 0x87, 0xc0, 2, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(8), uint8(15), []byte{0, 0, 0, 0, 0, 0x28, 0x86, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 3})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		n, m := int(rows%10), int(cols%71)+1
		compareLogSoftmax(t, "float64", n, m, fuzzRows(data, 0, n*m), fuzzRows(data, 1, n*m), fuzzRows(data, 2, n*m))
	})
}

// fuzzRows reads n elements from data, little-endian and cyclically,
// starting at element skip·n.
func fuzzRows(data []byte, skip, n int) []float64 {
	if len(data) == 0 {
		data = []byte{0}
	}
	s := make([]float64, n)
	pos := skip * n * 8
	for i := range s {
		var b uint64
		for j := 0; j < 8; j++ {
			b |= uint64(data[pos%len(data)]) << (8 * j)
			pos++
		}
		s[i] = fromBits(b)
	}
	return s
}

// BenchmarkLogSoftmax times one forward and one backward pass, single
// threaded (one worker), at output-layer shapes of the workloads —
// 41 columns is the mesh's gathered rows — on N(0, 3²) logits. It reports
// µs per call and must report 0 B/op.
func BenchmarkLogSoftmax(b *testing.B) {
	useWorkers(b, 1)
	for _, s := range []struct{ n, f int }{{4096, 8}, {4096, 16}, {4096, 41}, {8192, 32}} {
		rng := rand.New(rand.NewSource(30))
		z, grad, y, dst := New(s.n, s.f), randMatrix(rng, s.n, s.f), New(s.n, s.f), New(s.n, s.f)
		for i := range z.Data {
			z.Data[i] = 3 * rng.NormFloat64()
		}
		LogSoftmax{}.Forward(y, z)
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { LogSoftmax{}.Forward(dst, z) }},
			{"backward", func() { LogSoftmax{}.Backward(dst, grad, y) }},
		} {
			b.Run(fmt.Sprintf("%s/%dx%d", pass.name, s.n, s.f), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					pass.run()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/call")
			})
		}
	}
}
