package dense

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The tests below pin every GEMM-family kernel — each one a driver around a
// tile entry, the products over a's nonzeros around the compaction and the
// CSR tile — to the reference loops bit for bit, with the fused epilogues
// against their separate passes, at every tile edge: rows 0–9 (pairs and an
// odd last row), k 0–5, 63–65 and 130 (no k-step, a few, and past the
// drivers' k block of 64), and columns 1–21, 31–33, 64, 67 and 256 (every
// masked tail of one to four vectors, whole strips, several strips). dst
// sits inside a sentinel-padded buffer; nothing outside it may be written
// and no source may change. They run once per tile body this process has
// (eachBody): the Go bodies everywhere, and on amd64 the AVX2 bodies and,
// where the CPU has AVX-512, the AVX-512 ones, each installed in turn as
// the kernels' tile entries.

// gemmLayout says where a kernel's scales and B values live for output
// element (i, j) and k-step kk.
type gemmLayout int

const (
	layoutAB  gemmLayout = iota // a is n×k, b k×m: a·b
	layoutATB                   // a is k×n, b k×m: aᵀ·b
	layoutABT                   // a is n×k, b m×k: a·bᵀ, no term skipped
)

type gemmOperands struct {
	n, k, m int
	a, b    *Matrix
	h       *Matrix // the ReLU mask, n×m
	bias    []float64
}

type gemmKernel struct {
	name   string
	layout gemmLayout
	load   bool // dst's values before the call are part of the result
	bias   bool // the epilogue adds o.bias
	run    func(dst *Matrix, o *gemmOperands)
	ref    func(dst *Matrix, o *gemmOperands) // into dst holding the values before the call
}

// reluPass is the separate forward epilogue: the bias broadcast, then
// ReLU.Forward.
func reluPass(dst *Matrix, bias []float64) {
	for i := 0; i < dst.Rows; i++ {
		for j := range bias {
			dst.Row(i)[j] += bias[j]
		}
	}
	ReLU{}.Forward(dst, dst)
}

func gemmKernels() []gemmKernel {
	return []gemmKernel{
		{name: "Mul", layout: layoutAB,
			run: func(d *Matrix, o *gemmOperands) { Mul(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefMul(d, o.a, o.b) }},
		{name: "MulAdd", layout: layoutAB, load: true,
			run: func(d *Matrix, o *gemmOperands) { MulAdd(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefMulAdd(d, o.a, o.b) }},
		{name: "MulBiasReLU", layout: layoutAB, bias: true,
			run: func(d *Matrix, o *gemmOperands) { MulBiasReLU(d, o.a, o.b, o.bias) },
			ref: func(d *Matrix, o *gemmOperands) { RefMul(d, o.a, o.b); reluPass(d, o.bias) }},
		{name: "MulAddBiasReLU", layout: layoutAB, load: true, bias: true,
			run: func(d *Matrix, o *gemmOperands) { MulAddBiasReLU(d, o.a, o.b, o.bias) },
			ref: func(d *Matrix, o *gemmOperands) { RefMulAdd(d, o.a, o.b); reluPass(d, o.bias) }},
		{name: "TMul", layout: layoutATB,
			run: func(d *Matrix, o *gemmOperands) { TMul(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefTMul(d, o.a, o.b) }},
		// Over a's nonzeros: compacted, then on the CSR tile — the same
		// terms in the same order as the reference loops.
		{name: "MulNZ", layout: layoutAB,
			run: func(d *Matrix, o *gemmOperands) { MulNZ(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefMul(d, o.a, o.b) }},
		{name: "MulAddNZ", layout: layoutAB, load: true,
			run: func(d *Matrix, o *gemmOperands) { MulAddNZ(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefMulAdd(d, o.a, o.b) }},
		{name: "TMulNZ", layout: layoutATB,
			run: func(d *Matrix, o *gemmOperands) { TMulNZ(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefTMul(d, o.a, o.b) }},
		{name: "MulT", layout: layoutABT,
			run: func(d *Matrix, o *gemmOperands) { MulT(d, o.a, o.b) },
			ref: func(d *Matrix, o *gemmOperands) { RefMulT(d, o.a, o.b) }},
		{name: "MulTReLUMask", layout: layoutABT,
			run: func(d *Matrix, o *gemmOperands) { MulTReLUMask(d, o.a, o.b, o.h) },
			ref: func(d *Matrix, o *gemmOperands) { RefMulT(d, o.a, o.b); ReLU{}.Backward(d, d, o.h) }},
	}
}

// shapes returns the kernel's a and b dimensions for an n×m output over k.
func (kn gemmKernel) shapes(n, k, m int) (ar, ac, br, bc int) {
	switch kn.layout {
	case layoutATB:
		return k, n, k, m
	case layoutABT:
		return n, k, m, k
	}
	return n, k, k, m
}

// term returns the scale and B value of output (i, j) at k-step kk.
func (kn gemmKernel) term(o *gemmOperands, i, kk, j int) (s, x float64) {
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
func (kn gemmKernel) twoNaNs(o *gemmOperands, d float64, i, j int) bool {
	if !kn.load {
		d = 0
	}
	var v, x []float64
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
func compareGemm(t testing.TB, label string, kn gemmKernel, o *gemmOperands, before []float64) (exactNaNs int) {
	t.Helper()
	const pad = 9
	sentinel := fromBits(0x7ff4_dead_beef_0001)
	buf := make([]float64, pad+len(before)+pad)
	for i := range buf {
		buf[i] = sentinel
	}
	copy(buf[pad:], before)
	dst := FromSlice(o.n, o.m, buf[pad:pad+len(before)])
	want := FromSlice(o.n, o.m, append([]float64(nil), before...))
	a, b, h, bias := o.a.Clone(), o.b.Clone(), o.h.Clone(), append([]float64(nil), o.bias...)

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
		got, want []float64
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

// testGemmTile runs every kernel at every shape of the three lists: n rows,
// k inner and m columns. Alternate cases draw their
// operands from a pool half of whose values come from specialBits (±0
// scales, ±Inf, NaN payloads, subnormals, ±MaxFloat); the others from one of
// ordinary values, where a NaN cannot hide a change of order. In both the
// rest are normal draws with one in eight an exact ±0. An operand is the
// pool read from a random offset.
func testGemmTile(t *testing.T, rows, ks, cols []int) {
	rng := rand.New(rand.NewSource(25))
	special := specialBits()
	var pools [2][]float64
	for p := range pools {
		pools[p] = make([]float64, 1<<17)
		for i := range pools[p] {
			switch {
			case p == 1 && rng.Intn(2) == 0:
				pools[p][i] = fromBits(special[rng.Intn(len(special))])
			case rng.Intn(8) == 0:
				pools[p][i] = fromBits(special[rng.Intn(2)]) // ±0
			default:
				pools[p][i] = rng.NormFloat64()
			}
		}
	}
	c, exactNaNs := 0, 0
	for _, n := range rows {
		for _, k := range ks {
			for _, m := range cols {
				c++
				pool := pools[c%2]
				fill := func(r, cols int) *Matrix {
					x := New(r, cols)
					copy(x.Data, pool[rng.Intn(len(pool)-len(x.Data)):])
					return x
				}
				for _, kn := range gemmKernels() {
					ar, ac, br, bc := kn.shapes(n, k, m)
					o := &gemmOperands{n: n, k: k, m: m, a: fill(ar, ac), b: fill(br, bc), h: fill(n, m), bias: fill(1, m).Data}
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
	t.Run("float64", func(t *testing.T) {
		eachWorkerCount(t, func(t *testing.T) {
			eachBody(t, func(t *testing.T, _ tileBody) { testGemmTile(t, tileRows, tileKs, tileCols) })
		})
	})
}

// tileISAs is the closed table of tile bodies: every instruction set a
// tileBody of this repository is written for. cpuReports (cpu_*_test.go)
// says which of them this CPU and build must run.
var tileISAs = []string{"go", "avx2", "avx512"}

// useBody installs body as the kernels' tile entries until the returned
// function restores the ones before it.
func useBody(body tileBody) (restore func()) {
	tile, csr := tileF64, csrF64
	tileF64, csrF64 = body.tile, body.csr
	return func() { tileF64, csrF64 = tile, csr }
}

// eachBody runs test once per tile body this process has, installed as the
// kernels' tile entries, as a subtest named by its instruction set. It fails
// if a body outside tileISAs is there, or if the CPU reports an instruction
// set whose body did not run.
func eachBody(t *testing.T, test func(t *testing.T, body tileBody)) {
	t.Helper()
	ran := map[string]bool{}
	for _, body := range tileBodies {
		if !slices.Contains(tileISAs, body.isa) {
			t.Fatalf("tile body %q is not in the closed table %v", body.isa, tileISAs)
		}
		restore := useBody(body)
		t.Run(body.isa, func(t *testing.T) { test(t, body) })
		ran[body.isa] = true
		restore()
	}
	for _, isa := range tileISAs {
		if cpuReports(isa) && !ran[isa] {
			t.Errorf("the CPU reports %s, but its tile body did not run", isa)
		}
	}
}

// TestTileWindowOutsideOperandsPanics pins the bounds check of every tile
// body: a window one element past dst, the scales or B panics, as the
// slicing in the Go bodies does, instead of reaching past the slice — for
// the CSR tile also an entry past idx or val, or naming a row past b.
func TestTileWindowOutsideOperandsPanics(t *testing.T) {
	eachBody(t, func(t *testing.T, body tileBody) {
		tile, csr := body.tile, body.csr
		dst, s, b := make([]float64, 2*5), make([]float64, 2*3), make([]float64, 3*5)
		ptr, idx, val := []int{0, 2, 3}, []int{0, 2, 1}, []float64{1, 2, 3}
		for name, call := range map[string]func(){
			"dst":        func() { tile(dst[:9:9], 5, s, 3, 1, b, 5, 2, 5, 3, true, false) },
			"scales":     func() { tile(dst, 5, s[:5:5], 3, 1, b, 5, 2, 5, 3, true, false) },
			"b":          func() { tile(dst, 5, s, 3, 1, b[:14:14], 5, 2, 5, 3, true, false) },
			"csr dst":    func() { csr(dst[:9:9], 5, ptr, idx, val, b, 5, 5, true) },
			"csr idx":    func() { csr(dst, 5, []int{0, 2, 4}, idx, val, b, 5, 5, true) },
			"csr val":    func() { csr(dst, 5, ptr, idx, val[:2:2], b, 5, 5, true) },
			"csr b row":  func() { csr(dst, 5, ptr, idx, val, b[:14:14], 5, 5, true) },
			"csr b rows": func() { csr(dst, 5, ptr, []int{0, 3, 1}, val, b, 5, 5, true) },
		} {
			func() {
				defer mustPanic(t, name)
				call()
			}()
		}
	})
}

// fuzzGemmOperands builds a kernel's operands from raw fuzz input, every
// element's bits read cyclically from data.
func fuzzGemmOperands(kn gemmKernel, n, k, m int, data []byte) (*gemmOperands, []float64) {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	fill := func(r, c int) *Matrix {
		x := New(r, c)
		for i := range x.Data {
			var b uint64
			for j := 0; j < 8; j++ {
				b |= uint64(data[pos%len(data)]) << (8 * j)
				pos++
			}
			x.Data[i] = fromBits(b)
		}
		return x
	}
	ar, ac, br, bc := kn.shapes(n, k, m)
	o := &gemmOperands{n: n, k: k, m: m, a: fill(ar, ac), b: fill(br, bc), h: fill(n, m), bias: fill(1, m).Data}
	return o, fill(n, m).Data
}

func FuzzGemmTile(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), []byte{})
	f.Add(uint8(3), uint8(5), uint8(17), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(9), uint8(65), uint8(21), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 3})
	f.Add(uint8(2), uint8(2), uint8(33), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 2, 3})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		rows, inner, cols := int(n%10), int(k%140), int(m%70)+1
		for _, body := range tileBodies {
			restore := useBody(body)
			for _, kn := range gemmKernels() {
				o, before := fuzzGemmOperands(kn, rows, inner, cols, data)
				compareGemm(t, body.isa, kn, o, before)
			}
			restore()
		}
	})
}

// The tests below pin the CSR tile. The definition is the Go body, csrTile:
// per element, from dst (load) or +0, one multiply and one add per stored
// entry of the row, in entry order. csrModel computes it with x86's NaN rule
// written out — where two NaNs meet, the first operand's, quieted — in the
// operand order of the vector body (b first in the multiply, the product
// first in the add). The vector body must match the model bit for bit, NaN
// payloads included; the Go body too, except that its payload where two
// NaNs meet is the compiler's choice (see twoNaNsMeet).

// x86Op is one multiply or add as an SSE instruction computes it.
func x86Op(x, y float64, op func(x, y float64) float64) float64 {
	switch {
	case x != x:
		return fromBits(toBits(x) | quietBit)
	case y != y:
		return fromBits(toBits(y) | quietBit)
	}
	return op(x, y)
}

// csrModel returns element (r, c) of the CSR tile's result from its value
// d before the call.
func csrModel(c csrCase, r, col int, d float64) (sum float64, twoNaNs bool) {
	if !c.load {
		d = 0
	}
	var v, x []float64
	for e := c.ptr[r]; e < c.ptr[r+1]; e++ {
		v, x = append(v, c.val[e]), append(x, c.b[c.idx[e]*c.ldb+col])
	}
	twoNaNs = twoNaNsMeet(d, v, x)
	for i := range v {
		p := x86Op(x[i], v[i], func(x, v float64) float64 { return x * v })
		d = x86Op(p, d, func(p, d float64) float64 { return p + d })
	}
	return d, twoNaNs
}

// csrCase is one CSR tile call: rows of ptr over b (ldb wide, cols used),
// into a dst of stride ldd = cols + 3 inside a sentinel-padded buffer.
type csrCase struct {
	ptr, idx    []int
	val, b      []float64
	ldb, cols   int
	load        bool
	dst         []float64 // the values before the call, rows × ldd
	ldd, padded int
}

// compareCSR runs body's CSR tile on c and fails unless it matches the
// model — a vector body exactly, the Go body up to the payload where two
// NaNs meet — and writes nothing outside its window (the gaps between rows
// included) or to a source. It returns how many NaN results matched
// payload for payload.
func compareCSR(t testing.TB, label string, body tileBody, c csrCase) (exactNaNs int) {
	t.Helper()
	const pad = 5
	sentinel := fromBits(0x7ff4_dead_beef_0001)
	rows := len(c.ptr) - 1
	idx, val, b := append([]int(nil), c.idx...), append([]float64(nil), c.val...), append([]float64(nil), c.b...)
	strict := body.isa != "go"
	buf := make([]float64, pad+len(c.dst)+pad)
	for i := range buf {
		buf[i] = sentinel
	}
	copy(buf[pad:], c.dst)
	body.csr(buf[pad:pad+len(c.dst)], c.ldd, c.ptr, c.idx, c.val, c.b, c.ldb, c.cols, c.load)
	for w, got := range buf {
		e := w - pad
		r, col := e/max(c.ldd, 1), e%max(c.ldd, 1)
		if e < 0 || e >= len(c.dst) || col >= c.cols || r >= rows {
			if toBits(got) != toBits(sentinel) && (e < 0 || e >= len(c.dst) || toBits(got) != toBits(c.dst[e])) {
				t.Fatalf("%s %s: wrote %v at word %d, outside the window", label, body.isa, got, w)
			}
			continue
		}
		want, twoNaNs := csrModel(c, r, col, c.dst[e])
		if toBits(got) == toBits(want) {
			if got != got {
				exactNaNs++
			}
			continue
		}
		if !strict && twoNaNs && got != got && want != want {
			continue
		}
		t.Fatalf("%s %s: dst(%d,%d) = %#x (%v), model %#x (%v)", label, body.isa, r, col, toBits(got), got, toBits(want), want)
	}
	for i := range idx {
		if idx[i] != c.idx[i] || toBits(val[i]) != toBits(c.val[i]) {
			t.Fatalf("%s: entry %d was written", label, i)
		}
	}
	for i := range b {
		if toBits(b[i]) != toBits(c.b[i]) {
			t.Fatalf("%s: b word %d was written", label, i)
		}
	}
	return exactNaNs
}

// testTileCSR covers every width 1–40 (each masked tail of one to four
// vectors, whole strips, two strips) and 64 and 256, rows of 0, 1, 3, 4, 5
// and 70 entries, load on and off, with half the values from specialBits:
// ±0 (applied, not skipped), ±Inf, NaN payloads, subnormals, ±MaxFloat.
func testTileCSR(t *testing.T, body tileBody) {
	widths := []int{64, 256}
	for w := 1; w <= 40; w++ {
		widths = append(widths, w)
	}
	testTileCSRWidths(t, body, widths)
}

// testTileCSRWidths is testTileCSR at the given widths.
func testTileCSRWidths(t *testing.T, body tileBody, widths []int) {
	rng := rand.New(rand.NewSource(28))
	special := specialBits()
	value := func() float64 {
		if rng.Intn(2) == 0 {
			return fromBits(special[rng.Intn(len(special))])
		}
		return rng.NormFloat64()
	}
	entries := []int{0, 1, 3, 4, 5, 70, 0, 4}
	exactNaNs := 0
	for _, cols := range widths {
		for _, load := range []bool{false, true} {
			c := csrCase{ldb: cols + rng.Intn(3), cols: cols, load: load, ldd: cols + 3}
			const bRows = 80
			c.b = make([]float64, (bRows-1)*c.ldb+cols)
			for i := range c.b {
				c.b[i] = value()
			}
			c.ptr = []int{0}
			for _, n := range entries {
				for e := 0; e < n; e++ {
					c.idx = append(c.idx, rng.Intn(bRows))
					c.val = append(c.val, value())
				}
				c.ptr = append(c.ptr, len(c.idx))
			}
			c.dst = make([]float64, (len(entries)-1)*c.ldd+cols)
			for i := range c.dst {
				c.dst[i] = value()
			}
			exactNaNs += compareCSR(t, fmt.Sprintf("cols=%d load=%v", cols, load), body, c)
		}
	}
	if exactNaNs == 0 {
		t.Fatal("no NaN result was compared payload for payload: the value mix no longer reaches one")
	}
}

func TestTileCSRMatchesGo(t *testing.T) {
	t.Run("float64", func(t *testing.T) { eachBody(t, testTileCSR) })
}

// TestTileWideStripsMatchReference covers the strips of five to eight
// vectors the AVX-512 bodies add (64 columns to a strip), which the two
// tests above reach only at 33–40 columns and whole 64-column strips: every
// width 41–63 and 65–66 (a second strip), for both tiles, on every body.
func TestTileWideStripsMatchReference(t *testing.T) {
	var cols []int
	for m := 41; m <= 66; m++ {
		if m != 64 {
			cols = append(cols, m)
		}
	}
	eachBody(t, func(t *testing.T, body tileBody) {
		testGemmTile(t, []int{1, 2, 3}, []int{0, 1, 5, 65}, cols)
		testTileCSRWidths(t, body, cols)
	})
}

// fuzzCSRCase builds a CSR tile call from raw fuzz input: the shape from
// the small arguments, then every entry's source row, every row's entry
// count and every value's bits read cyclically from data.
func fuzzCSRCase(rows, cols, bRows int, load bool, data []byte) csrCase {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	value := func() float64 {
		var b uint64
		for j := 0; j < 8; j++ {
			b |= uint64(next()) << (8 * j)
		}
		return fromBits(b)
	}
	c := csrCase{ldb: cols, cols: cols, load: load, ldd: cols + 3, ptr: []int{0}}
	for r := 0; r < rows; r++ {
		for e := int(next() % 9); e > 0; e-- {
			c.idx = append(c.idx, int(next())%bRows)
			c.val = append(c.val, value())
		}
		c.ptr = append(c.ptr, len(c.idx))
	}
	c.b = make([]float64, bRows*cols)
	for i := range c.b {
		c.b[i] = value()
	}
	c.dst = make([]float64, max(rows-1, 0)*c.ldd+cols)
	for i := range c.dst {
		c.dst[i] = value()
	}
	return c
}

func FuzzTileCSR(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), false, []byte{})
	f.Add(uint8(3), uint8(17), uint8(4), true, []byte{2, 1, 0, 0, 0, 0, 0, 0xf0, 0x3f, 3, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(5), uint8(33), uint8(2), false, []byte{4, 0, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(2), uint8(40), uint8(7), true, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 2, 3})
	f.Fuzz(func(t *testing.T, rows, cols, bRows uint8, load bool, data []byte) {
		n, m, k := int(rows%9), int(cols%70)+1, int(bRows%12)+1
		c := fuzzCSRCase(n, m, k, load, data)
		for _, body := range tileBodies {
			compareCSR(t, "float64", body, c)
		}
	})
}
