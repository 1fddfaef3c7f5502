package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests below make the fork in axpy.go safe: whatever AxpyFor hands the
// kernels must equal the Go loops AxpyRow and Axpy4Row bit for bit. Where
// the selected routines are the Go loops themselves there is nothing to
// compare, and the tests say so instead of passing.
func skipWithoutVectorKernels(t testing.TB) {
	if KernelISA() == "go" {
		t.Skip("accumulation loops run on the Go code in this build (no AVX2, another GOARCH, or -tags purego): nothing to compare them with")
	}
}

func toBits[T Elem](v T) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	}
	panic("toBits: element type is neither float32 nor float64")
}

func fromBits[T Elem](b uint64) T {
	var v T
	switch p := any(&v).(type) {
	case *float32:
		*p = math.Float32frombits(uint32(b))
	case *float64:
		*p = math.Float64frombits(b)
	default:
		panic("fromBits: element type is neither float32 nor float64")
	}
	return v
}

func isFloat32[T Elem]() bool {
	var v T
	_, ok := any(v).(float32)
	return ok
}

// quietBit is the mantissa bit that turns a signalling NaN into the quiet
// NaN an arithmetic instruction returns for it.
func quietBit[T Elem]() uint64 {
	if isFloat32[T]() {
		return 1 << 22
	}
	return 1 << 51
}

// specialBits lists the values arithmetic treats specially: both zeros,
// both infinities, quiet and signalling NaNs of either sign with distinct
// payloads, the smallest and largest subnormal, the smallest normal,
// ±MaxFloat (whose products and sums overflow), and a few ordinary values
// for them to meet.
func specialBits[T Elem]() []uint64 {
	if isFloat32[T]() {
		b := []uint64{
			0x00000000, 0x80000000, 0x7f800000, 0xff800000,
			0x7fc00001, 0xffc00002, 0x7f800003, 0xff900004,
			0x00000001, 0x807fffff, 0x00800000,
			0x7f7fffff, 0xff7fffff,
		}
		for _, f := range []float32{1, -1, 2, 0.5, -3.25, 1e-20, 1e20} {
			b = append(b, uint64(math.Float32bits(f)))
		}
		return b
	}
	b := []uint64{
		0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000001, 0xfff8000000000002, 0x7ff0000000000003, 0xfff2000000000004,
		0x0000000000000001, 0x800fffffffffffff, 0x0010000000000000,
		0x7fefffffffffffff, 0xffefffffffffffff,
	}
	for _, f := range []float64{1, -1, 2, 0.5, -3.25, 1e-160, 1e160} {
		b = append(b, math.Float64bits(f))
	}
	return b
}

// twoNaNsMeet reports whether, computing d + v[0]*x[0] + … in source order,
// some multiply or add sees two NaNs that differ after quieting. x86 then
// returns its first operand, and which operand comes first in the compiled
// Go loop is the register allocator's choice: it differs between the lanes
// of the unrolled loop, and between a -race build and a plain one. The Go
// loop does not define that payload, so no routine can be held to it;
// everywhere else the result is independent of operand order and must match
// to the bit.
func twoNaNsMeet[T Elem](d T, v, x []T) bool {
	for i := range v {
		if nansDiffer(v[i], x[i]) {
			return true
		}
		p := v[i] * x[i]
		if nansDiffer(d, p) {
			return true
		}
		d += p
	}
	return false
}

// nansDiffer reports whether a and b are both NaN and differ after quieting.
func nansDiffer[T Elem](a, b T) bool {
	q := quietBit[T]()
	return a != a && b != b && toBits(a)|q != toBits(b)|q
}

// axpyCase is one set of operands: dst is buf[off:off+n], the rest of buf
// holds sentinels no routine may touch.
type axpyCase[T Elem] struct {
	buf []T
	off int
	n   int
	v   [4]T
	x   [4][]T
}

// compareAxpy runs the Go loop and the selected routine on copies of c.buf,
// with one source and with four, and compares every word of the buffer:
// exact bits, except NaN-ness only where twoNaNsMeet. It returns how many
// NaN results were compared exactly.
func compareAxpy[T Elem](t testing.TB, label string, c axpyCase[T]) (exactNaNs int) {
	t.Helper()
	vec := AxpyFor[T]()
	window := func(buf []T) []T { return buf[c.off : c.off+c.n] }
	var src [4][]T
	for i, x := range c.x {
		src[i] = append([]T(nil), x...)
	}
	check := func(routine string, sources int, got, want []T) {
		t.Helper()
		col := make([]T, sources)
		for j := range want {
			if toBits(got[j]) == toBits(want[j]) {
				if want[j] != want[j] {
					exactNaNs++
				}
				continue
			}
			if k := j - c.off; k >= 0 && k < c.n && got[j] != got[j] && want[j] != want[j] {
				for i := range col {
					col[i] = c.x[i][k]
				}
				if twoNaNsMeet(c.buf[j], c.v[:sources], col) {
					continue
				}
			}
			t.Fatalf("%s %s: word %d (dst[%d], n=%d): got %#x (%v), Go loop %#x (%v)",
				label, routine, j, j-c.off, c.n, toBits(got[j]), got[j], toBits(want[j]), want[j])
		}
		for i, x := range c.x {
			for j := range x {
				if toBits(x[j]) != toBits(src[i][j]) {
					t.Fatalf("%s %s: source %d word %d was written", label, routine, i, j)
				}
			}
		}
	}

	want := append([]T(nil), c.buf...)
	got := append([]T(nil), c.buf...)
	AxpyRow(window(want), c.v[0], c.x[0])
	vec.Row(window(got), c.v[0], c.x[0])
	check("Row", 1, got, want)

	copy(want, c.buf)
	copy(got, c.buf)
	Axpy4Row(window(want), c.v[0], c.x[0], c.v[1], c.x[1], c.v[2], c.x[2], c.v[3], c.x[3])
	vec.Row4(window(got), c.v[0], c.x[0], c.v[1], c.x[1], c.v[2], c.x[2], c.v[3], c.x[3])
	check("Row4", 4, got, want)
	return exactNaNs
}

// testAxpyLengthsAndOffsets covers every length 0–67 and 255–257 with dst
// and each source starting at every offset 0–7 of a larger slice (so no
// alignment is assumed and a write past len(dst) lands on a sentinel),
// values drawn half from specialBits and half at random, and once per length
// with one source passed as two arguments.
func testAxpyLengthsAndOffsets[T Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	special := specialBits[T]()
	value := func() T {
		if rng.Intn(2) == 0 {
			return fromBits[T](special[rng.Intn(len(special))])
		}
		return T(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	fill := func(n int) []T {
		s := make([]T, n)
		for i := range s {
			s[i] = value()
		}
		return s
	}
	lengths := []int{255, 256, 257}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	exactNaNs := 0
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			c := axpyCase[T]{buf: fill(off + n + 9), off: off, n: n}
			for i := range c.x {
				xo := (off + 2*i + 1) % 8
				c.v[i] = value()
				c.x[i] = fill(xo + n + 3)[xo : xo+n]
			}
			if off == n%8 {
				c.x[2] = c.x[1]
			}
			exactNaNs += compareAxpy(t, fmt.Sprintf("n=%d off=%d", n, off), c)
		}
	}
	if exactNaNs == 0 {
		t.Fatal("no NaN result was compared payload for payload: the value mix no longer reaches one")
	}
}

func TestAxpyVectorMatchesGoLoops(t *testing.T) {
	skipWithoutVectorKernels(t)
	t.Run("float64", testAxpyLengthsAndOffsets[float64])
	t.Run("float32", testAxpyLengthsAndOffsets[float32])
}

// testAxpySpecialValues meets every special value with every other in each
// position: for each scale, dst runs through the list along one axis and
// the source along the other, in a row long enough to pass through the
// two-vector, one-vector and scalar parts of the routines.
func testAxpySpecialValues[T Elem](t *testing.T) {
	special := specialBits[T]()
	s := len(special)
	n := s*s + 3
	for vi, vb := range special {
		c := axpyCase[T]{buf: make([]T, n+2), off: 1, n: n}
		for i := range c.x {
			c.x[i] = make([]T, n)
			c.v[i] = fromBits[T](special[(vi+5*i)%s])
		}
		c.v[0] = fromBits[T](vb)
		for j := 0; j < n; j++ {
			c.buf[1+j] = fromBits[T](special[(j/s)%s])
			for i := range c.x {
				c.x[i][j] = fromBits[T](special[(j+i*(j/s))%s])
			}
		}
		compareAxpy(t, fmt.Sprintf("scale %#x", vb), c)
	}
}

func TestAxpyVectorSpecialValues(t *testing.T) {
	skipWithoutVectorKernels(t)
	t.Run("float64", testAxpySpecialValues[float64])
	t.Run("float32", testAxpySpecialValues[float32])
}

// TestAxpyShortSourcePanics pins the length check on whichever routines are
// selected: a source whose capacity is below len(dst) panics before a single
// element of dst is written, as x = x[:n] does in the Go loops.
func TestAxpyShortSourcePanics(t *testing.T) {
	k := AxpyFor[float64]()
	long := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	calls := map[string]func(dst []float64){
		"Row":           func(dst []float64) { k.Row(dst, 2, long[:8:8]) },
		"Row4 source 0": func(dst []float64) { k.Row4(dst, 2, long[:8:8], 2, long, 2, long, 2, long) },
		"Row4 source 3": func(dst []float64) { k.Row4(dst, 2, long, 2, long, 2, long, 2, long[:0:0]) },
	}
	for name, call := range calls {
		dst := make([]float64, 9)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a source shorter than dst did not panic", name)
				}
			}()
			call(dst)
		}()
		for j, d := range dst {
			if d != 0 {
				t.Errorf("%s: dst[%d] = %v written before the panic", name, j, d)
			}
		}
	}
}

// fuzzAxpyCase builds operands from raw fuzz input: the length, the five
// offsets packed three bits each into offs, and every element's bits read
// from data (cyclically, after the four scales).
func fuzzAxpyCase[T Elem](n int, offs uint16, data []byte) axpyCase[T] {
	if len(data) == 0 {
		data = []byte{0}
	}
	width := 8
	if isFloat32[T]() {
		width = 4
	}
	pos := 0
	next := func() T {
		var b uint64
		for i := 0; i < width; i++ {
			b |= uint64(data[pos%len(data)]) << (8 * i)
			pos++
		}
		return fromBits[T](b)
	}
	fill := func(n int) []T {
		s := make([]T, n)
		for i := range s {
			s[i] = next()
		}
		return s
	}
	off := int(offs & 7)
	c := axpyCase[T]{off: off, n: n}
	for i := range c.v {
		c.v[i] = next()
	}
	c.buf = fill(off + n + 5)
	for i := range c.x {
		xo := int(offs>>(3*(i+1))) & 7
		c.x[i] = fill(xo + n + 1)[xo : xo+n]
	}
	if offs&(1<<15) != 0 {
		c.x[3] = c.x[0]
	}
	return c
}

func FuzzAxpy(f *testing.F) {
	skipWithoutVectorKernels(f)
	nan := []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	f.Add(uint16(0), uint16(0), []byte{})
	f.Add(uint16(7), uint16(0x1234), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(uint16(13), uint16(0xffff), nan)
	f.Add(uint16(64), uint16(0x8421), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 0xff, 0xff, 0x7f, 0x7f})
	f.Add(uint16(257), uint16(0x0e39), []byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xff, 3})
	f.Fuzz(func(t *testing.T, n, offs uint16, data []byte) {
		length := int(n % 300)
		compareAxpy(t, "float64", fuzzAxpyCase[float64](length, offs, data))
		compareAxpy(t, "float32", fuzzAxpyCase[float32](length, offs, data))
	})
}
