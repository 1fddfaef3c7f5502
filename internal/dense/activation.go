package dense

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
)

// activationRows dispatches a rowwise activation sweep over z through the
// shared worker pool. Each row is written by exactly one worker, so parallel
// execution stays bit-identical to the serial sweep.
//
// Kernels call their row-range helper directly when parallel.Inline reports
// the sweep would run inline anyway; the func literal here escapes to the
// pool workers and would otherwise heap-allocate on every call.
func activationRows[T Elem](z *Of[T], fn func(lo, hi int)) {
	parallel.Rows(z.Rows, int64(len(z.Data)), fn)
}

// activationInline reports whether a sweep over z runs inline.
func activationInline[T Elem](z *Of[T]) bool {
	return parallel.Inline(z.Rows, int64(len(z.Data)))
}

// Activation is a differentiable elementwise-or-rowwise nonlinearity used
// between GNN layers. Forward computes dst = σ(z); Backward computes
// dst = grad ⊙ σ'(z) for elementwise activations, or the full
// row-Jacobian-vector product for rowwise ones such as LogSoftmax. Backward
// reads the forward output y = σ(z), not z: every activation here has its
// derivative as a function of y (1[y > 0], 1, exp(y)), so a trainer keeps
// one matrix per layer for the backward pass, and log-softmax need not
// repeat the forward's log-sum-exp.
//
// RowWise reports whether σ couples values within a row. The paper's
// communication analysis distinguishes the two: elementwise activations need
// no communication while rowwise ones (log_softmax) force an all-gather
// along process rows (§IV-C-2).
//
// The interface is fixed to the default float64 matrices; the row kernels
// behind it (ReLUForwardOf, LogSoftmaxForwardOf, ...) are generic, and
// ForwardOf / BackwardOf apply an Activation in either element type.
type Activation interface {
	// Name identifies the activation in configs and logs.
	Name() string
	// Forward writes σ(z) into dst. dst may alias z.
	Forward(dst, z *Matrix)
	// Backward writes the gradient of the loss with respect to z into dst,
	// given upstream gradient grad and the forward output y = σ(z). dst may
	// alias grad.
	Backward(dst, grad, y *Matrix)
	// RowWise reports whether the activation couples elements within a row.
	RowWise() bool
}

// ReLU is max(0, x).
type ReLU struct{}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// RowWise implements Activation: ReLU is elementwise.
func (ReLU) RowWise() bool { return false }

// Forward implements Activation.
func (ReLU) Forward(dst, z *Matrix) { ReLUForwardOf(dst, z) }

// ReLUForwardOf writes max(z, 0) into dst for any element type. dst may
// alias z.
func ReLUForwardOf[T Elem](dst, z *Of[T]) {
	sameShape2(dst, z, "ReLU.Forward")
	if activationInline(z) {
		reluForwardRows(dst, z, 0, z.Rows)
		return
	}
	activationRows(z, func(lo, hi int) {
		reluForwardRows(dst, z, lo, hi)
	})
}

func reluForwardRows[T Elem](dst, z *Of[T], lo, hi int) {
	i0, i1 := lo*z.Cols, hi*z.Cols
	reluRow(dst.Data[i0:i1], z.Data[i0:i1])
}

// Backward implements Activation: dst = grad ⊙ 1[y > 0].
func (ReLU) Backward(dst, grad, y *Matrix) { ReLUBackwardOf(dst, grad, y) }

// ReLUBackwardOf writes grad ⊙ 1[z > 0] into dst for any element type.
// Because relu(z) > 0 ⟺ z > 0, the forward output and the pre-activation
// give bit-identical masks.
func ReLUBackwardOf[T Elem](dst, grad, z *Of[T]) {
	sameShape3(dst, grad, z, "ReLU.Backward")
	if activationInline(z) {
		reluBackwardRows(dst, grad, z, 0, z.Rows)
		return
	}
	activationRows(z, func(lo, hi int) {
		reluBackwardRows(dst, grad, z, lo, hi)
	})
}

func reluBackwardRows[T Elem](dst, grad, z *Of[T], lo, hi int) {
	i0, i1 := lo*z.Cols, hi*z.Cols
	reluMaskRow(dst.Data[i0:i1], grad.Data[i0:i1], z.Data[i0:i1])
}

// The ReLU rule is "v where v > 0, else +0", so −0 and every NaN become +0
// (as the plain `if v > 0` loop gives them), and its gradient mask keeps
// grad where z > 0 and writes +0 elsewhere. Every ReLU body of this package
// — ReLU.Forward, ReLU.Backward and the fused GEMM epilogues — applies it
// through reluRow and reluMaskRow, one pair of definitions.
//
// Both are branch-free: a sign that varies at random mispredicts a branch
// about half the time. On the bits b of v, v > 0 ⟺ b − 1 < bits(+Inf) as
// unsigned integers — +0 wraps to the top, every negative value and −0 carry
// the sign bit, every NaN lies above +Inf — and the result is b ANDed with
// the all-ones-or-zero mask that comparison yields.
const (
	inf64Bits = 0x7FF0000000000000
	inf32Bits = 0x7F800000
)

// positive64 is all ones where the float64 with bits b is > 0, zero
// otherwise: the borrow out of (b − 1) − bits(+Inf), negated.
func positive64(b uint64) uint64 {
	_, borrow := bits.Sub64(b-1, inf64Bits, 0)
	return -borrow
}

// positive32 is positive64 for float32 bits: the 64-bit difference of two
// 32-bit values is negative exactly when the first is below the second.
func positive32(b uint32) uint32 {
	return uint32(int64(uint64(b-1)-inf32Bits) >> 63)
}

func reluRowF64(dst, z []float64) {
	z = z[:len(dst)]
	for i, v := range z {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b & positive64(b))
	}
}

func reluRowF32(dst, z []float32) {
	z = z[:len(dst)]
	for i, v := range z {
		b := math.Float32bits(v)
		dst[i] = math.Float32frombits(b & positive32(b))
	}
}

func reluMaskRowF64(dst, grad, z []float64) {
	grad, z = grad[:len(dst)], z[:len(dst)]
	for i, v := range z {
		dst[i] = math.Float64frombits(math.Float64bits(grad[i]) & positive64(math.Float64bits(v)))
	}
}

func reluMaskRowF32(dst, grad, z []float32) {
	grad, z = grad[:len(dst)], z[:len(dst)]
	for i, v := range z {
		dst[i] = math.Float32frombits(math.Float32bits(grad[i]) & positive32(math.Float32bits(v)))
	}
}

// reluRow writes relu(z) into dst under the ReLU rule. dst may alias z; z
// must be at least as long as dst.
func reluRow[T Elem](dst, z []T) {
	if f, ok := any(reluRowF64).(func(dst, z []T)); ok {
		f(dst, z)
	} else if f, ok := any(reluRowF32).(func(dst, z []T)); ok {
		f(dst, z)
	} else {
		panic(fmt.Sprintf("dense: no ReLU kernel for %T", *new(T)))
	}
}

// reluMaskRow writes grad ⊙ 1[z > 0] into dst under the ReLU rule. dst may
// alias grad or z; both must be at least as long as dst.
func reluMaskRow[T Elem](dst, grad, z []T) {
	if f, ok := any(reluMaskRowF64).(func(dst, grad, z []T)); ok {
		f(dst, grad, z)
	} else if f, ok := any(reluMaskRowF32).(func(dst, grad, z []T)); ok {
		f(dst, grad, z)
	} else {
		panic(fmt.Sprintf("dense: no ReLU kernel for %T", *new(T)))
	}
}

// Identity is the no-op activation, useful for testing the pure linear
// pipeline.
type Identity struct{}

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// RowWise implements Activation.
func (Identity) RowWise() bool { return false }

// Forward implements Activation.
func (Identity) Forward(dst, z *Matrix) {
	sameShape2(dst, z, "Identity.Forward")
	if activationInline(z) {
		copy(dst.Data, z.Data)
		return
	}
	activationRows(z, func(lo, hi int) {
		copy(dst.Data[lo*z.Cols:hi*z.Cols], z.Data[lo*z.Cols:hi*z.Cols])
	})
}

// Backward implements Activation.
func (Identity) Backward(dst, grad, y *Matrix) {
	sameShape3(dst, grad, y, "Identity.Backward")
	if activationInline(y) {
		copy(dst.Data, grad.Data)
		return
	}
	activationRows(y, func(lo, hi int) {
		copy(dst.Data[lo*y.Cols:hi*y.Cols], grad.Data[lo*y.Cols:hi*y.Cols])
	})
}

// LogSoftmax applies log(softmax) along each row, the standard output
// activation for node classification. It is rowwise: in distributed runs it
// requires gathering each full row (the paper's all-gather term).
type LogSoftmax struct{}

// Name implements Activation.
func (LogSoftmax) Name() string { return "log_softmax" }

// RowWise implements Activation.
func (LogSoftmax) RowWise() bool { return true }

// Forward implements Activation: dst[i,j] = z[i,j] - log(sum_k exp(z[i,k])),
// computed with the max-subtraction trick for numerical stability.
func (LogSoftmax) Forward(dst, z *Matrix) { LogSoftmaxForwardOf(dst, z) }

// LogSoftmaxForwardOf is the generic log-softmax forward sweep. The
// log-sum-exp reduction always accumulates in float64 — for float32 inputs
// the exponentials sum in double precision (the "f64 loss accumulation"
// half of mixed precision); for float64 inputs the arithmetic is unchanged.
func LogSoftmaxForwardOf[T Elem](dst, z *Of[T]) {
	sameShape2(dst, z, "LogSoftmax.Forward")
	if activationInline(z) {
		logSoftmaxLaneRows(dst, z, 0, z.Rows)
		return
	}
	activationRows(z, func(lo, hi int) {
		logSoftmaxLaneRows(dst, z, lo, hi)
	})
}

// rowLanes is the row-lane log-softmax: four rows at a time, one per vector
// lane, each replaying the Go loops (logSoftmaxRow, logSoftmaxBackwardRows)
// bit for bit — their exp and log are math's own, instruction for
// instruction. forward and backward run whole groups of four rows of cols
// columns from the start of their slices (dst and grad as long as z or y)
// and return how many groups they completed: they stop before a group with
// a lane off math.Exp's or math.Log's fast path (a NaN, an infinity, a
// subnormal or overflowing exp) and store nothing of it. Zero functions
// where the process runs the Go loops alone.
type rowLanes[T Elem] struct {
	forward  func(dst, z []T, cols int) int
	backward func(dst, grad, y []T, cols int) int
}

// rowLanesFor returns the row lanes for element type T, chosen as tileFor
// chooses.
func rowLanesFor[T Elem]() rowLanes[T] {
	if l, ok := any(&lanesF64).(*rowLanes[T]); ok {
		return *l
	}
	if l, ok := any(&lanesF32).(*rowLanes[T]); ok {
		return *l
	}
	return rowLanes[T]{}
}

// logSoftmaxLaneRows is the forward over rows lo…hi-1: whole groups of four
// on the lanes, and on the Go loop every group the lanes hand back and the
// rows after the last whole group.
func logSoftmaxLaneRows[T Elem](dst, z *Of[T], lo, hi int) {
	c, lanes := z.Cols, rowLanesFor[T]().forward
	for lanes != nil && c > 0 && hi-lo >= 4 {
		lo += 4 * lanes(dst.Data[lo*c:hi*c], z.Data[lo*c:hi*c], c)
		if hi-lo >= 4 {
			logSoftmaxForwardRows(dst, z, lo, lo+4)
			lo += 4
		}
	}
	logSoftmaxForwardRows(dst, z, lo, hi)
}

// logSoftmaxForwardRows is the forward's Go loop over rows lo…hi-1.
func logSoftmaxForwardRows[T Elem](dst, z *Of[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		logSoftmaxRow(dst.Row(i), z.Row(i))
	}
}

func logSoftmaxRow[T Elem](dst, z []T) {
	lse := logSumExp(z)
	for j, v := range z {
		dst[j] = T(float64(v) - lse)
	}
}

// logSumExp returns log(sum_j exp(z[j])) with the max-subtraction trick,
// accumulated in float64 regardless of the element type.
func logSumExp[T Elem](z []T) float64 {
	mx := math.Inf(-1)
	for _, v := range z {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	var sum float64
	for _, v := range z {
		sum += math.Exp(float64(v) - mx)
	}
	return mx + math.Log(sum)
}

// Backward implements Activation. For y = log_softmax(z),
// dL/dz[i,j] = grad[i,j] - softmax(z)[i,j] * sum_k grad[i,k].
//
// softmax(z)[i,j] is exp(y[i,j]): the forward stored y[i,j] = z[i,j] − lse
// rounded once, which is the very argument a recomputation from z would
// hand to exp, so in float64 reading y is bit-identical to recomputing the
// log-sum-exp and costs one exp sweep instead of two. Reads of y[i,j] and
// grad[i,j] happen before the dst[i,j] write, so dst may alias grad (or y)
// as documented.
func (LogSoftmax) Backward(dst, grad, y *Matrix) { LogSoftmaxBackwardOf(dst, grad, y) }

// LogSoftmaxBackwardOf is the generic log-softmax backward sweep over the
// forward output y, with the gradient row sum accumulated in float64. For
// float32 the stored y carries one more rounding than z − lse in double,
// so the result moves by an ulp of y against a recomputation from z.
func LogSoftmaxBackwardOf[T Elem](dst, grad, y *Of[T]) {
	sameShape3(dst, grad, y, "LogSoftmax.Backward")
	if activationInline(y) {
		logSoftmaxBackwardLaneRows(dst, grad, y, 0, y.Rows)
		return
	}
	activationRows(y, func(lo, hi int) {
		logSoftmaxBackwardLaneRows(dst, grad, y, lo, hi)
	})
}

// logSoftmaxBackwardLaneRows is the backward over rows lo…hi-1, split
// between the lanes and the Go loop as logSoftmaxLaneRows splits the
// forward.
func logSoftmaxBackwardLaneRows[T Elem](dst, grad, y *Of[T], lo, hi int) {
	c, lanes := y.Cols, rowLanesFor[T]().backward
	for lanes != nil && c > 0 && hi-lo >= 4 {
		lo += 4 * lanes(dst.Data[lo*c:hi*c], grad.Data[lo*c:hi*c], y.Data[lo*c:hi*c], c)
		if hi-lo >= 4 {
			logSoftmaxBackwardRows(dst, grad, y, lo, lo+4)
			lo += 4
		}
	}
	logSoftmaxBackwardRows(dst, grad, y, lo, hi)
}

// logSoftmaxBackwardRows is the backward's Go loop over rows lo…hi-1.
func logSoftmaxBackwardRows[T Elem](dst, grad, y *Of[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		yrow := y.Row(i)
		grow := grad.Row(i)
		drow := dst.Row(i)
		var gsum float64
		for _, g := range grow {
			gsum += float64(g)
		}
		for j := range drow {
			drow[j] = T(float64(grow[j]) - math.Exp(float64(yrow[j]))*gsum)
		}
	}
}

// ForwardOf writes act(z) into dst in element type T. Float64 goes through
// the interface, so any Activation works there; another element type is
// served by the generic kernel registered under act.Name(), and panics when
// there is none.
func ForwardOf[T Elem](act Activation, dst, z *Of[T]) {
	if d, ok := any(dst).(*Matrix); ok {
		act.Forward(d, any(z).(*Matrix))
		return
	}
	switch act.Name() {
	case "relu":
		ReLUForwardOf(dst, z)
	case "log_softmax":
		LogSoftmaxForwardOf(dst, z)
	case "identity":
		dst.CopyFrom(z)
	default:
		panic(fmt.Sprintf("dense: activation %q has no %T kernel", act.Name(), *new(T)))
	}
}

// BackwardOf writes the gradient of act into dst given the upstream grad and
// the forward output y, in element type T; see ForwardOf for the dispatch.
func BackwardOf[T Elem](act Activation, dst, grad, y *Of[T]) {
	if d, ok := any(dst).(*Matrix); ok {
		act.Backward(d, any(grad).(*Matrix), any(y).(*Matrix))
		return
	}
	switch act.Name() {
	case "relu":
		ReLUBackwardOf(dst, grad, y)
	case "log_softmax":
		LogSoftmaxBackwardOf(dst, grad, y)
	case "identity":
		dst.CopyFrom(grad)
	default:
		panic(fmt.Sprintf("dense: activation %q has no %T kernel", act.Name(), *new(T)))
	}
}

func sameShape2[T Elem](a, b *Of[T], op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
