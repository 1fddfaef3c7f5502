package core

import (
	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// Serial is the single-process reference trainer. Its outputs define
// correctness for every distributed trainer (the paper verifies its
// parallel implementation produces "the same embeddings up to floating
// point accumulation errors" as serial PyTorch, §V-A).
type Serial struct {
	// Reference runs the pre-optimization scalar kernels (one source per
	// accumulation sweep, the ReLU as a separate pass after the multiply,
	// log-softmax a row at a time, always on the Go loops): the oracle the
	// tests hold the default kernels to, bit for bit.
	Reference bool
}

// NewSerial returns the serial reference trainer.
func NewSerial() *Serial { return &Serial{} }

// Name implements Trainer.
func (*Serial) Name() string { return "serial" }

// Train implements Trainer.
func (s *Serial) Train(p Problem) (*Result, error) {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newSerialEngine(p.Config.WithDefaults(), p, s.Reference).run()
}

// newSerialEngine builds the serial trainer: the engine over serialOps, on
// the reference kernels when ref is set.
func newSerialEngine(cfg nn.Config, p Problem, ref bool) *engine {
	ops := newSerialOps(p)
	ops.ref = ref
	return newEngine(ops, cfg, p).meta("serial", 1)
}

// serialOps implements layerOps for the single-process trainer: every
// matrix is whole, every "collective" is the identity.
//
// Per-layer temporaries come from the workspace, each handed back after
// its last reader (release) and the rest at endEpoch, so a steady-state
// epoch allocates nothing and the workspace holds the epoch's live set.
type serialOps struct {
	// at and a are Aᵀ for the forward aggregation and A for the backward
	// one — one matrix when A is symmetric, as on every dataset the repo
	// generates.
	at, a  *sparse.CSR
	h0     *dense.Matrix
	labels []int
	mask   []bool
	norm   int
	ws     *dense.Workspace
	cnt    []float64

	// ref swaps every multiply for the pre-optimization reference kernels,
	// followed by a separate ReLU pass where the engine asks for a fused
	// one, and the reoriented weight gradient where it asks for sparseRight,
	// and runs log-softmax on its Go loops (see Serial.Reference).
	ref bool
}

// newSerialOps builds the serial layerOps for p with a fresh workspace. The
// transpose is taken only when A ≠ Aᵀ (symmetric, as every trainer decides
// it).
func newSerialOps(p Problem) *serialOps {
	s := &serialOps{
		at: p.A, a: p.A, h0: p.features(),
		labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(),
		ws: dense.NewWorkspace(), cnt: make([]float64, 8),
	}
	if !symmetric(p.A) {
		s.at = p.A.Transpose()
	}
	return s
}

func (s *serialOps) rank() int { return 0 }

func (s *serialOps) input() *dense.Matrix { return s.h0 }

func (s *serialOps) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := s.ws.GetUninit(s.at.Rows, x.Cols)
	s.spmm(t, s.at, x)
	if l == 1 {
		t = s.ws.Keep(t) // T¹ outlives endEpoch: the engine reuses it every epoch
	}
	return t
}

func (s *serialOps) multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix {
	z := s.ws.GetUninit(x.Rows, w.Cols)
	if !s.ref {
		weightMul(z, x, w, f, false)
		return z
	}
	dense.RefMul(z, x, w)
	if f == fusedReLU {
		dense.ReLU{}.Forward(z, z)
	}
	return z
}

func (s *serialOps) activationForward(act dense.Activation, z *dense.Matrix, l int) *dense.Matrix {
	h := s.ws.GetUninit(z.Rows, z.Cols)
	if _, ok := act.(dense.LogSoftmax); ok && s.ref {
		dense.RefLogSoftmaxForward(h, z)
	} else {
		act.Forward(h, z)
	}
	return h
}

func (s *serialOps) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := s.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedInto(grad, hOut, s.labels, s.mask, 0, s.norm), grad
}

func (s *serialOps) activationBackward(act dense.Activation, dH, h *dense.Matrix, l int) *dense.Matrix {
	g := s.ws.GetUninit(h.Rows, h.Cols)
	if _, ok := act.(dense.LogSoftmax); ok && s.ref {
		dense.RefLogSoftmaxBackward(g, dH, h)
	} else {
		act.Backward(g, dH, h)
	}
	return g
}

func (s *serialOps) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	// A·G^l is reused for both Y and ∂L/∂H (§IV-A-4); A·(G^l(W^l)ᵀ) is
	// ∂L/∂H^{l-1} itself.
	ax := s.ws.GetUninit(s.a.Rows, x.Cols)
	s.spmm(ax, s.a, x)
	return ax
}

// spmm is dst = m·x on the kernel the options select.
func (s *serialOps) spmm(dst *dense.Matrix, m *sparse.CSR, x *dense.Matrix) {
	if s.ref {
		sparse.RefSpMM(dst, m, x)
	} else {
		sparse.SpMM(dst, m, x)
	}
}

func (s *serialOps) weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix {
	dW := s.ws.GetUninit(hPrev.Cols, g.Cols)
	weightProduct(s.ws, dW, hPrev, g, f, s.ref)
	return dW
}

func (s *serialOps) inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix {
	dH := s.ws.GetUninit(g.Rows, w.Rows)
	switch {
	case s.ref:
		dense.RefMulT(dH, g, w)
		if mask != nil {
			dense.ReLU{}.Backward(dH, dH, mask)
		}
	case mask != nil:
		dense.MulTReLUMask(dH, g, w, mask)
	default:
		dense.MulT(dH, g, w)
	}
	return dH
}

func (s *serialOps) release(m *dense.Matrix) { s.ws.Release(m) }

func (s *serialOps) endEpoch() { s.ws.Reset() }

func (s *serialOps) correctCounts(hOut *dense.Matrix, masks ...[]bool) []float64 {
	counts := countBuf(s.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, s.labels, 0, masks)
	return counts
}

func (s *serialOps) reduce(vals []float64) []float64 { return vals }

func (s *serialOps) gatherOutput(hOut *dense.Matrix) *dense.Matrix { return hOut }
