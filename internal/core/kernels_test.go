package core

import (
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/tolerance"
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

// trainWith trains p on a fresh serial trainer with kernel options o.
func trainWith(t *testing.T, p Problem, o KernelOptions) *Result {
	t.Helper()
	tr := NewSerial()
	if err := SetKernelOptions(tr, o); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Train(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMixedPrecisionWithinTolerance: the f32 storage/compute path with f64
// loss accumulation and master weights must track the f64 reference within
// single-precision tolerance across the depth-4 matrix and every optimizer.
func TestMixedPrecisionWithinTolerance(t *testing.T) {
	for _, opt := range []string{"sgd", "momentum", "adam"} {
		t.Run(opt, func(t *testing.T) {
			p := deepProblem(t, 6, 34)
			p.Config.Optimizer = opt
			want := trainWith(t, p, KernelOptions{})
			got := trainWith(t, p, KernelOptions{Precision: PrecisionF32})
			tolerance.AssertCloseSlice(t, "losses", got.Losses, want.Losses, 1e-3, 1e-3)
			tolerance.AssertClose(t, "output", got.Output, want.Output, 5e-2, 5e-2)
			if math.Abs(got.Accuracy-want.Accuracy) > 0.05 {
				t.Fatalf("accuracy %v vs f64 %v", got.Accuracy, want.Accuracy)
			}
		})
	}
}

// TestSetKernelOptionsValidation: the serial trainer accepts every valid
// combination; distributed trainers accept only the default; malformed
// values are rejected up front.
func TestSetKernelOptionsValidation(t *testing.T) {
	for _, o := range []KernelOptions{
		{Precision: PrecisionF32}, {Reference: true},
		{Precision: PrecisionF32, Reference: true}, {Precision: PrecisionF64, Reference: true},
	} {
		if err := SetKernelOptions(NewSerial(), o); err != nil {
			t.Fatalf("serial rejects %+v: %v", o, err)
		}
	}
	oneD := NewOneD(4, testMach)
	if err := SetKernelOptions(oneD, KernelOptions{}); err != nil {
		t.Fatalf("default options rejected for 1d: %v", err)
	}
	if err := SetKernelOptions(oneD, KernelOptions{Precision: PrecisionF64}); err != nil {
		t.Fatalf("spelled-out default rejected for 1d: %v", err)
	}
	if err := SetKernelOptions(oneD, KernelOptions{Precision: PrecisionF32}); err == nil {
		t.Fatal("f32 accepted for 1d")
	}
	if err := SetKernelOptions(oneD, KernelOptions{Reference: true}); err == nil {
		t.Fatal("reference kernels accepted for 1d")
	}
	if err := SetKernelOptions(NewSerial(), KernelOptions{Precision: "f16"}); err == nil {
		t.Fatal("precision f16 accepted")
	}
}

// TestDefaultBitIdenticalToReference: the optimized default path — fused
// epilogues, the register tiles in every GEMM and SpMM, the products over a
// ReLU operand's nonzeros, the row-lane log-softmax, the vector routines
// where the CPU has them — must reproduce the pre-optimization reference
// kernels bit for bit, in both precisions. This is the end-to-end pin for
// the whole blocking scheme: each tile performs the same adds in the same
// per-element order as the one-source reference loops, and each lane the
// log-softmax loops' operations, math.Exp and math.Log included.
// Reference is independent of Precision, and spelling out f64 changes
// nothing.
func TestDefaultBitIdenticalToReference(t *testing.T) {
	for _, precision := range []string{PrecisionF64, PrecisionF32} {
		t.Run(precision, func(t *testing.T) {
			p := deepProblem(t, 6, 47)
			want := trainWith(t, p, KernelOptions{Precision: precision, Reference: true})
			got := trainWith(t, p, KernelOptions{Precision: precision})
			requireSameRun(t, precision+" default-vs-reference", got, want)
		})
	}
}

// unfusedReLU is ReLU under another name: the same Forward and Backward,
// which the engine does not fuse into a multiply.
type unfusedReLU struct{ dense.ReLU }

func (unfusedReLU) Name() string { return "relu-unfused" }

// plainProducts runs every product of its ops as a dense GEMM: the forms
// that would multiply a ReLU operand's nonzeros fall back to plainGEMM.
type plainProducts[T dense.Elem] struct{ layerOpsOf[T] }

func (o plainProducts[T]) multiplyWeight(x, w *dense.Of[T], l int, f productForm) *dense.Of[T] {
	if f == sparseLeft {
		f = plainGEMM
	}
	return o.layerOpsOf.multiplyWeight(x, w, l, f)
}

func (o plainProducts[T]) weightGrad(hPrev, g *dense.Of[T], l int, f productForm) *dense.Of[T] {
	return o.layerOpsOf.weightGrad(hPrev, g, l, plainGEMM)
}
