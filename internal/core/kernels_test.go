package core

import (
	"testing"

	"repro/internal/dense"
)

// deepProblem builds a depth-4 (4 weight layers) training problem: three
// hidden ReLU layers exercise the fused forward epilogue, the fused
// backward mask, and the engine skipping the activation passes they replace
// across consecutive layers.
func deepProblem(t testing.TB, epochs int, seed int64) Problem {
	t.Helper()
	p := testProblem(t, 60, 10, 8, 4, epochs, seed)
	p.Config.Widths = []int{10, 8, 7, 6, 4}
	return p
}

// trainWith trains p on a fresh serial trainer, on the reference kernels
// when ref is set.
func trainWith(t *testing.T, p Problem, ref bool) *Result {
	t.Helper()
	res, err := (&Serial{Reference: ref}).Train(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDefaultBitIdenticalToReference: the optimized default path — fused
// epilogues, the register tiles in every GEMM and SpMM, the products over a
// ReLU operand's nonzeros, the row-lane log-softmax, the vector routines
// where the CPU has them — must reproduce the pre-optimization reference
// kernels bit for bit. This is the end-to-end pin for the whole blocking
// scheme: each tile performs the same adds in the same per-element order as
// the one-source reference loops, and each lane the log-softmax loops'
// operations, math.Exp and math.Log included.
func TestDefaultBitIdenticalToReference(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		p := deepProblem(t, 6, 47)
		requireSameRun(t, "default-vs-reference", trainWith(t, p, false), trainWith(t, p, true))
	})
}

// unfusedReLU is ReLU under another name: the same Forward and Backward,
// which the engine does not fuse into a multiply.
type unfusedReLU struct{ dense.ReLU }

func (unfusedReLU) Name() string { return "relu-unfused" }
