package dense

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/parallel"
)

// activationJob is one activation sweep: sweep(dst, src, z, lo, hi)
// writes rows [lo, hi) of dst from those of src and z, z of the sweep's
// shape.
type activationJob struct {
	sweep       func(dst, src, z *Matrix, lo, hi int)
	dst, src, z *Matrix
}

func (j *activationJob) Rows(lo, hi int) { j.sweep(j.dst, j.src, j.z, lo, hi) }

var activationJobs parallel.Dispatcher[activationJob, *activationJob]

// activationRows runs an activation sweep over z's rows through the shared
// worker pool. Each row is written by exactly one worker, so parallel
// execution stays bit-identical to the serial sweep.
func activationRows(sweep func(dst, src, z *Matrix, lo, hi int), dst, src, z *Matrix) {
	activationJobs.Run(z.Rows, int64(len(z.Data)), activationJob{sweep, dst, src, z})
}

// copyRows copies rows [lo, hi) of src, z's shape, into dst.
func copyRows(dst, src, z *Matrix, lo, hi int) {
	copy(dst.Data[lo*z.Cols:hi*z.Cols], src.Data[lo*z.Cols:hi*z.Cols])
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

// Forward implements Activation: dst = max(z, 0). dst may alias z.
func (ReLU) Forward(dst, z *Matrix) {
	sameShape2(dst, z, "ReLU.Forward")
	activationRows(reluForwardRows, dst, z, z)
}

func reluForwardRows(dst, _, z *Matrix, lo, hi int) {
	i0, i1 := lo*z.Cols, hi*z.Cols
	reluRow(dst.Data[i0:i1], z.Data[i0:i1])
}

// Backward implements Activation: dst = grad ⊙ 1[y > 0]. Because
// relu(z) > 0 ⟺ z > 0, y may be the forward output or the pre-activation:
// the masks are bit-identical.
func (ReLU) Backward(dst, grad, y *Matrix) {
	sameShape3(dst, grad, y, "ReLU.Backward")
	activationRows(reluBackwardRows, dst, grad, y)
}

func reluBackwardRows(dst, grad, z *Matrix, lo, hi int) {
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
const inf64Bits = 0x7FF0000000000000

// positive64 is all ones where the float64 with bits b is > 0, zero
// otherwise: the borrow out of (b − 1) − bits(+Inf), negated.
func positive64(b uint64) uint64 {
	_, borrow := bits.Sub64(b-1, inf64Bits, 0)
	return -borrow
}

// reluRow writes relu(z) into dst under the ReLU rule. dst may alias z; z
// must be at least as long as dst.
func reluRow(dst, z []float64) {
	z = z[:len(dst)]
	for i, v := range z {
		b := math.Float64bits(v)
		dst[i] = math.Float64frombits(b & positive64(b))
	}
}

// reluMaskRow writes grad ⊙ 1[z > 0] into dst under the ReLU rule. dst may
// alias grad or z; both must be at least as long as dst.
func reluMaskRow(dst, grad, z []float64) {
	grad, z = grad[:len(dst)], z[:len(dst)]
	for i, v := range z {
		dst[i] = math.Float64frombits(math.Float64bits(grad[i]) & positive64(math.Float64bits(v)))
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
	activationRows(copyRows, dst, z, z)
}

// Backward implements Activation.
func (Identity) Backward(dst, grad, y *Matrix) {
	sameShape3(dst, grad, y, "Identity.Backward")
	activationRows(copyRows, dst, grad, y)
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
func (LogSoftmax) Forward(dst, z *Matrix) {
	sameShape2(dst, z, "LogSoftmax.Forward")
	activationRows(logSoftmaxLaneRows, dst, z, z)
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
type rowLanes struct {
	forward  func(dst, z []float64, cols int) int
	backward func(dst, grad, y []float64, cols int) int
}

// logSoftmaxLaneRows is the forward over rows lo…hi-1: whole groups of four
// on the lanes, and on the Go loop every group the lanes hand back and the
// rows after the last whole group.
func logSoftmaxLaneRows(dst, _, z *Matrix, lo, hi int) {
	c, lanes := z.Cols, lanesF64.forward
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
func logSoftmaxForwardRows(dst, z *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		logSoftmaxRow(dst.Row(i), z.Row(i))
	}
}

func logSoftmaxRow(dst, z []float64) {
	lse := logSumExp(z)
	for j, v := range z {
		dst[j] = v - lse
	}
}

// logSumExp returns log(sum_j exp(z[j])) with the max-subtraction trick.
func logSumExp(z []float64) float64 {
	mx := math.Inf(-1)
	for _, v := range z {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for _, v := range z {
		sum += math.Exp(v - mx)
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
func (LogSoftmax) Backward(dst, grad, y *Matrix) {
	sameShape3(dst, grad, y, "LogSoftmax.Backward")
	activationRows(logSoftmaxBackwardLaneRows, dst, grad, y)
}

// logSoftmaxBackwardLaneRows is the backward over rows lo…hi-1, split
// between the lanes and the Go loop as logSoftmaxLaneRows splits the
// forward.
func logSoftmaxBackwardLaneRows(dst, grad, y *Matrix, lo, hi int) {
	c, lanes := y.Cols, lanesF64.backward
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
func logSoftmaxBackwardRows(dst, grad, y *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		yrow := y.Row(i)
		grow := grad.Row(i)
		drow := dst.Row(i)
		var gsum float64
		for _, g := range grow {
			gsum += g
		}
		for j := range drow {
			drow[j] = grow[j] - math.Exp(yrow[j])*gsum
		}
	}
}

func sameShape2(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
