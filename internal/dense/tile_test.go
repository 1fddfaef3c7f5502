package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tests below pin every GEMM-family kernel — each one a driver around
// the tile entry — to the reference loops bit for bit, with the fused
// epilogues against their separate passes, at every tile edge: rows 0–9
// (pairs and an odd last row), k 0–5, 63–65 and 130 (no k-step, a few, and
// past the drivers' k block of 128), and columns 1–21,
// 31–33, 64, 67 and 256 (every masked tail of one to four vectors, whole
// strips, several strips). dst sits inside a sentinel-padded buffer; nothing
// outside it may be written and no source may change. They run on whatever
// tileFor selects — the assembly on an AVX2 host, the Go body elsewhere — so
// a purego build checks the Go body against the reference loops.

// gemmLayout says where a kernel's scales and B values live for output
// element (i, j) and k-step kk.
type gemmLayout int

const (
	layoutAB  gemmLayout = iota // a is n×k, b k×m: a·b
	layoutATB                   // a is k×n, b k×m: aᵀ·b
	layoutABT                   // a is n×k, b m×k: a·bᵀ, no term skipped
)

type gemmOperands[T Elem] struct {
	n, k, m int
	a, b    *Of[T]
	h       *Of[T] // the ReLU mask, n×m
	bias    []T
}

type gemmKernel[T Elem] struct {
	name   string
	layout gemmLayout
	load   bool // dst's values before the call are part of the result
	bias   bool // the epilogue adds o.bias
	run    func(dst *Of[T], o *gemmOperands[T])
	ref    func(dst *Of[T], o *gemmOperands[T]) // into dst holding the values before the call
}

// reluPass is the separate forward epilogue: the bias broadcast, then
// ReLU.Forward.
func reluPass[T Elem](dst *Of[T], bias []T) {
	for i := 0; i < dst.Rows; i++ {
		for j := range bias {
			dst.Row(i)[j] += bias[j]
		}
	}
	ReLUForwardOf(dst, dst)
}

func gemmKernels[T Elem]() []gemmKernel[T] {
	return []gemmKernel[T]{
		{name: "Mul", layout: layoutAB,
			run: func(d *Of[T], o *gemmOperands[T]) { Mul(d, o.a, o.b) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMul(d, o.a, o.b) }},
		{name: "MulAdd", layout: layoutAB, load: true,
			run: func(d *Of[T], o *gemmOperands[T]) { MulAdd(d, o.a, o.b) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMulAdd(d, o.a, o.b) }},
		{name: "MulBiasReLU", layout: layoutAB, bias: true,
			run: func(d *Of[T], o *gemmOperands[T]) { MulBiasReLU(d, o.a, o.b, o.bias) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMul(d, o.a, o.b); reluPass(d, o.bias) }},
		{name: "MulAddBiasReLU", layout: layoutAB, load: true, bias: true,
			run: func(d *Of[T], o *gemmOperands[T]) { MulAddBiasReLU(d, o.a, o.b, o.bias) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMulAdd(d, o.a, o.b); reluPass(d, o.bias) }},
		{name: "TMul", layout: layoutATB,
			run: func(d *Of[T], o *gemmOperands[T]) { TMul(d, o.a, o.b) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefTMul(d, o.a, o.b) }},
		// The scatter on a nonzero dst is the ikj loop over an explicit aᵀ:
		// the same terms per element in the same order.
		{name: "TMulAdd", layout: layoutATB, load: true,
			run: func(d *Of[T], o *gemmOperands[T]) { TMulAdd(d, o.a, o.b) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMulAdd(d, o.a.T(), o.b) }},
		{name: "MulT", layout: layoutABT,
			run: func(d *Of[T], o *gemmOperands[T]) { MulT(d, o.a, o.b) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMulT(d, o.a, o.b) }},
		{name: "MulTReLUMask", layout: layoutABT,
			run: func(d *Of[T], o *gemmOperands[T]) { MulTReLUMask(d, o.a, o.b, o.h) },
			ref: func(d *Of[T], o *gemmOperands[T]) { RefMulT(d, o.a, o.b); ReLUBackwardOf(d, d, o.h) }},
	}
}

// shapes returns the kernel's a and b dimensions for an n×m output over k.
func (kn gemmKernel[T]) shapes(n, k, m int) (ar, ac, br, bc int) {
	switch kn.layout {
	case layoutATB:
		return k, n, k, m
	case layoutABT:
		return n, k, m, k
	}
	return n, k, k, m
}

// term returns the scale and B value of output (i, j) at k-step kk.
func (kn gemmKernel[T]) term(o *gemmOperands[T], i, kk, j int) (s, x T) {
	switch kn.layout {
	case layoutATB:
		return o.a.At(kk, i), o.b.At(kk, j)
	case layoutABT:
		return o.a.At(i, kk), o.b.At(j, kk)
	}
	return o.a.At(i, kk), o.b.At(kk, j)
}

// twoNaNs reports whether two NaNs that differ after quieting meet in one
// operation of output (i, j) — its multiplies and adds as the reference
// runs them from d, then the bias add — where the payload x86 returns
// depends on operand order the reference loop does not fix (see
// twoNaNsMeet).
func (kn gemmKernel[T]) twoNaNs(o *gemmOperands[T], d T, i, j int) bool {
	if !kn.load {
		d = 0
	}
	var v, x []T
	for kk := 0; kk < o.k; kk++ {
		if s, bx := kn.term(o, i, kk, j); s != 0 || kn.layout == layoutABT {
			v, x = append(v, s), append(x, bx)
		}
	}
	if twoNaNsMeet(d, v, x) {
		return true
	}
	if !kn.bias || o.bias == nil {
		return false
	}
	for idx := range v {
		d += v[idx] * x[idx]
	}
	return nansDiffer(d, o.bias[j])
}

// compareGemm runs kn on o into a sentinel-padded dst holding before, and
// the reference into a plain copy, and fails unless every word of the
// padded buffer matches — exact bits, NaN-ness only where twoNaNs — and the
// sources are unchanged. It returns how many NaN results matched payload
// for payload.
func compareGemm[T Elem](t testing.TB, label string, kn gemmKernel[T], o *gemmOperands[T], before []T) (exactNaNs int) {
	t.Helper()
	const pad = 9
	sentinel := fromBits[T](0x7ff4_dead_beef_0001)
	buf := make([]T, pad+len(before)+pad)
	for i := range buf {
		buf[i] = sentinel
	}
	copy(buf[pad:], before)
	dst := FromSliceOf(o.n, o.m, buf[pad:pad+len(before)])
	want := FromSliceOf(o.n, o.m, append([]T(nil), before...))
	a, b, h, bias := o.a.Clone(), o.b.Clone(), o.h.Clone(), append([]T(nil), o.bias...)

	kn.run(dst, o)
	kn.ref(want, o)

	for w, got := range buf {
		if w < pad || w >= pad+len(before) {
			if toBits(got) != toBits(sentinel) {
				t.Fatalf("%s %s: wrote %v at padding word %d", label, kn.name, got, w)
			}
			continue
		}
		e := w - pad
		exp := want.Data[e]
		if toBits(got) == toBits(exp) {
			if got != got {
				exactNaNs++
			}
			continue
		}
		i, j := e/o.m, e%o.m
		if got != got && exp != exp && kn.twoNaNs(o, before[e], i, j) {
			continue
		}
		t.Fatalf("%s %s: dst(%d,%d) = %#x (%v), reference %#x (%v)",
			label, kn.name, i, j, toBits(got), got, toBits(exp), exp)
	}
	for _, src := range []struct {
		name      string
		got, want []T
	}{{"a", o.a.Data, a.Data}, {"b", o.b.Data, b.Data}, {"h", o.h.Data, h.Data}, {"bias", o.bias, bias}} {
		for w := range src.want {
			if toBits(src.got[w]) != toBits(src.want[w]) {
				t.Fatalf("%s %s: source %s word %d was written", label, kn.name, src.name, w)
			}
		}
	}
	return exactNaNs
}

var (
	tileRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	tileKs   = []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 130}
	tileCols = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 31, 32, 33, 64, 67, 256}
)

// testGemmTile runs every kernel at every shape. Alternate cases draw their
// operands from a pool half of whose values come from specialBits (±0
// scales, ±Inf, NaN payloads, subnormals, ±MaxFloat); the others from one of
// ordinary values, where a NaN cannot hide a change of order. In both the
// rest are normal draws with one in eight an exact ±0. An operand is the
// pool read from a random offset.
func testGemmTile[T Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	special := specialBits[T]()
	var pools [2][]T
	for p := range pools {
		pools[p] = make([]T, 1<<17)
		for i := range pools[p] {
			switch {
			case p == 1 && rng.Intn(2) == 0:
				pools[p][i] = fromBits[T](special[rng.Intn(len(special))])
			case rng.Intn(8) == 0:
				pools[p][i] = fromBits[T](special[rng.Intn(2)]) // ±0
			default:
				pools[p][i] = T(rng.NormFloat64())
			}
		}
	}
	c, exactNaNs := 0, 0
	for _, n := range tileRows {
		for _, k := range tileKs {
			for _, m := range tileCols {
				c++
				pool := pools[c%2]
				fill := func(r, cols int) *Of[T] {
					x := NewOf[T](r, cols)
					copy(x.Data, pool[rng.Intn(len(pool)-len(x.Data)):])
					return x
				}
				for _, kn := range gemmKernels[T]() {
					ar, ac, br, bc := kn.shapes(n, k, m)
					o := &gemmOperands[T]{n: n, k: k, m: m, a: fill(ar, ac), b: fill(br, bc), h: fill(n, m), bias: fill(1, m).Data}
					exactNaNs += compareGemm(t, fmt.Sprintf("n=%d k=%d m=%d", n, k, m), kn, o, fill(n, m).Data)
				}
			}
		}
	}
	if exactNaNs == 0 {
		t.Fatal("no NaN result was compared payload for payload: the value mix no longer reaches one")
	}
}

func TestGemmTileMatchesReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) { eachBackend(t, testGemmTile[float64]) })
	t.Run("float32", func(t *testing.T) { eachBackend(t, testGemmTile[float32]) })
}

// TestTileWindowOutsideOperandsPanics pins the bounds check of whichever
// tile entry runs: a window one element past dst, the scales or B panics,
// as the slicing in the Go body does, instead of reaching past the slice.
func TestTileWindowOutsideOperandsPanics(t *testing.T) {
	tile := tileFor[float64]()
	dst, s, b := make([]float64, 2*5), make([]float64, 2*3), make([]float64, 3*5)
	for name, call := range map[string]func(){
		"dst":    func() { tile(dst[:9:9], 5, s, 3, 1, b, 5, 2, 5, 3, true, false) },
		"scales": func() { tile(dst, 5, s[:5:5], 3, 1, b, 5, 2, 5, 3, true, false) },
		"b":      func() { tile(dst, 5, s, 3, 1, b[:14:14], 5, 2, 5, 3, true, false) },
	} {
		func() {
			defer mustPanic(t, name)
			call()
		}()
	}
}

// fuzzGemmOperands builds a kernel's operands from raw fuzz input, every
// element's bits read cyclically from data.
func fuzzGemmOperands[T Elem](kn gemmKernel[T], n, k, m int, data []byte) (*gemmOperands[T], []T) {
	if len(data) == 0 {
		data = []byte{0}
	}
	width := 8
	if isFloat32[T]() {
		width = 4
	}
	pos := 0
	fill := func(r, c int) *Of[T] {
		x := NewOf[T](r, c)
		for i := range x.Data {
			var b uint64
			for j := 0; j < width; j++ {
				b |= uint64(data[pos%len(data)]) << (8 * j)
				pos++
			}
			x.Data[i] = fromBits[T](b)
		}
		return x
	}
	ar, ac, br, bc := kn.shapes(n, k, m)
	o := &gemmOperands[T]{n: n, k: k, m: m, a: fill(ar, ac), b: fill(br, bc), h: fill(n, m), bias: fill(1, m).Data}
	return o, fill(n, m).Data
}

func FuzzGemmTile(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), []byte{})
	f.Add(uint8(3), uint8(5), uint8(17), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(9), uint8(65), uint8(21), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 3})
	f.Add(uint8(2), uint8(2), uint8(33), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 2, 3})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		rows, inner, cols := int(n%10), int(k%140), int(m%70)+1
		for _, kn := range gemmKernels[float64]() {
			o, before := fuzzGemmOperands(kn, rows, inner, cols, data)
			compareGemm(t, "float64", kn, o, before)
		}
		for _, kn := range gemmKernels[float32]() {
			o, before := fuzzGemmOperands(kn, rows, inner, cols, data)
			compareGemm(t, "float32", kn, o, before)
		}
	})
}
