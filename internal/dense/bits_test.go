package dense

import "math"

// Helpers for the exact-bits tests of the vector bodies: element bits, the
// special values they are fed, and where x86's NaN rule lets the compiled
// Go loops disagree with themselves.

func toBits(v float64) uint64 { return math.Float64bits(v) }

func fromBits(b uint64) float64 { return math.Float64frombits(b) }

// quietBit is the mantissa bit that turns a signalling NaN into the quiet
// NaN an arithmetic instruction returns for it.
const quietBit = 1 << 51

// specialBits lists the values arithmetic treats specially: both zeros,
// both infinities, quiet and signalling NaNs of either sign with distinct
// payloads — among them payload 1, the NaN next to ±Inf — the smallest
// subnormal of either sign and the largest, the smallest normal, ±MaxFloat
// (whose products and sums overflow), and a few ordinary values for them to
// meet.
func specialBits() []uint64 {
	b := []uint64{
		0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000001, 0xfff8000000000002, 0x7ff0000000000003, 0xfff2000000000004,
		0x7ff0000000000001, 0xfff0000000000001,
		0x0000000000000001, 0x8000000000000001, 0x800fffffffffffff, 0x0010000000000000,
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
func twoNaNsMeet(d float64, v, x []float64) bool {
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
func nansDiffer(a, b float64) bool {
	return a != a && b != b && toBits(a)|quietBit != toBits(b)|quietBit
}
