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
	return newSerialEngine[float64](p.Config.WithDefaults(), p, s.Reference).run()
}

// newSerialEngine builds the serial trainer in element type T: the engine
// over serialOps[T], on the reference kernels when ref is set.
func newSerialEngine[T dense.Elem](cfg nn.Config, p Problem, ref bool) *engine[T] {
	ops := newSerialOps[T](p)
	ops.ref = ref
	return newEngine(ops, cfg, p).meta("serial", 1)
}

// serialOps implements layerOps for the single-process trainer in element
// type T: every matrix is whole, every "collective" is the identity.
//
// Per-layer temporaries come from the workspace, each handed back after
// its last reader (release) and the rest at endEpoch, so a steady-state
// epoch allocates nothing and the workspace holds the epoch's live set.
type serialOps[T dense.Elem] struct {
	// at and a are Aᵀ for the forward aggregation and A for the backward
	// one — one matrix when A is symmetric, as on every dataset the repo
	// generates.
	at, a  *sparse.CSROf[T]
	h0     *dense.Of[T]
	labels []int
	mask   []bool
	norm   int
	ws     *dense.WorkspaceOf[T]
	cnt    []float64

	// ref swaps every multiply for the pre-optimization reference kernels,
	// followed by a separate ReLU pass where the engine asks for a fused
	// one, and the reoriented weight gradient where it asks for sparseRight,
	// and runs log-softmax on its Go loops (see Serial.Reference).
	ref bool
}

// newSerialOps builds the serial layerOps for p with a fresh workspace. The
// transpose is taken only when A ≠ Aᵀ (symmetric, as every trainer decides
// it), and each operand is converted to T once, here.
func newSerialOps[T dense.Elem](p Problem) *serialOps[T] {
	s := &serialOps[T]{
		a:      sparse.As[T](p.A),
		labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(),
		ws: dense.NewWorkspaceOf[T](), cnt: make([]float64, 8),
	}
	s.at = s.a
	if !symmetric(p.A) {
		s.at = sparse.As[T](p.A.Transpose())
	}
	dense.As(&s.h0, p.features())
	return s
}

func (s *serialOps[T]) rank() int { return 0 }

func (s *serialOps[T]) input() *dense.Of[T] { return s.h0 }

func (s *serialOps[T]) forwardAggregate(x *dense.Of[T], l int) *dense.Of[T] {
	t := s.ws.GetUninit(s.at.Rows, x.Cols)
	s.spmm(t, s.at, x)
	if l == 1 {
		t = s.ws.Keep(t) // T¹ outlives endEpoch: the engine reuses it every epoch
	}
	return t
}

func (s *serialOps[T]) multiplyWeight(x, w *dense.Of[T], l int, f productForm) *dense.Of[T] {
	z := s.ws.GetUninit(x.Rows, w.Cols)
	if !s.ref {
		weightMul(z, x, w, f, false)
		return z
	}
	dense.RefMul(z, x, w)
	if f == fusedReLU {
		dense.ReLUForwardOf(z, z)
	}
	return z
}

func (s *serialOps[T]) activationForward(act dense.Activation, z *dense.Of[T], l int) *dense.Of[T] {
	h := s.ws.GetUninit(z.Rows, z.Cols)
	if _, ok := act.(dense.LogSoftmax); ok && s.ref {
		dense.RefLogSoftmaxForward(h, z)
	} else {
		dense.ForwardOf(act, h, z)
	}
	return h
}

func (s *serialOps[T]) lossGrad(hOut *dense.Of[T]) (float64, *dense.Of[T]) {
	grad := s.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedIntoOf(grad, hOut, s.labels, s.mask, 0, s.norm), grad
}

func (s *serialOps[T]) activationBackward(act dense.Activation, dH, h *dense.Of[T], l int) *dense.Of[T] {
	g := s.ws.GetUninit(h.Rows, h.Cols)
	if _, ok := act.(dense.LogSoftmax); ok && s.ref {
		dense.RefLogSoftmaxBackward(g, dH, h)
	} else {
		dense.BackwardOf(act, g, dH, h)
	}
	return g
}

func (s *serialOps[T]) backwardAggregate(x *dense.Of[T], l int) *dense.Of[T] {
	// A·G^l is reused for both Y and ∂L/∂H (§IV-A-4); A·(G^l(W^l)ᵀ) is
	// ∂L/∂H^{l-1} itself.
	ax := s.ws.GetUninit(s.a.Rows, x.Cols)
	s.spmm(ax, s.a, x)
	return ax
}

// spmm is dst = m·x on the kernel the options select.
func (s *serialOps[T]) spmm(dst *dense.Of[T], m *sparse.CSROf[T], x *dense.Of[T]) {
	if s.ref {
		sparse.RefSpMM(dst, m, x)
	} else {
		sparse.SpMM(dst, m, x)
	}
}

func (s *serialOps[T]) weightGrad(hPrev, g *dense.Of[T], l int, f productForm) *dense.Of[T] {
	dW := s.ws.GetUninit(hPrev.Cols, g.Cols)
	weightProduct(s.ws, dW, hPrev, g, f, s.ref)
	return dW
}

func (s *serialOps[T]) inputGrad(g, w *dense.Of[T], l int, mask *dense.Of[T]) *dense.Of[T] {
	dH := s.ws.GetUninit(g.Rows, w.Rows)
	switch {
	case s.ref:
		dense.RefMulT(dH, g, w)
		if mask != nil {
			dense.ReLUBackwardOf(dH, dH, mask)
		}
	case mask != nil:
		dense.MulTReLUMask(dH, g, w, mask)
	default:
		dense.MulT(dH, g, w)
	}
	return dH
}

func (s *serialOps[T]) release(m *dense.Of[T]) { s.ws.Release(m) }

func (s *serialOps[T]) endEpoch() { s.ws.Reset() }

func (s *serialOps[T]) correctCounts(hOut *dense.Of[T], masks ...[]bool) []float64 {
	counts := countBuf(s.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, s.labels, 0, masks)
	return counts
}

func (s *serialOps[T]) reduce(vals []float64) []float64 { return vals }

func (s *serialOps[T]) gatherOutput(hOut *dense.Of[T]) *dense.Of[T] { return hOut }
