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
//
// It is also the only trainer that accepts non-default KernelOptions —
// float32 precision, the reference kernels, or both — via SetKernelOptions.
type Serial struct {
	// Kernel selects the compute kernels; the zero value is the default
	// f64 configuration. Set via SetKernelOptions.
	Kernel KernelOptions
}

// NewSerial returns the serial reference trainer.
func NewSerial() *Serial { return &Serial{} }

// Name implements Trainer.
func (*Serial) Name() string { return "serial" }

// Train implements Trainer. Precision is the element type the trainer is
// instantiated in, nothing more.
func (s *Serial) Train(p Problem) (*Result, error) {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := s.Kernel.Validate(); err != nil {
		return nil, err
	}
	cfg := p.Config.WithDefaults()
	if s.Kernel.Precision == PrecisionF32 {
		return newSerialEngine[float32](cfg, p, s.Kernel.Reference).run()
	}
	return newSerialEngine[float64](cfg, p, s.Kernel.Reference).run()
}

// newSerialEngine builds the serial trainer in element type T: the engine
// over serialOps[T], on the reference kernels when ref is set.
func newSerialEngine[T dense.Elem](cfg nn.Config, p Problem, ref bool) *engine[T] {
	ops := newSerialOps[T](cfg, p)
	ops.ref = ref
	return newEngine(ops, cfg, p).meta("serial", 1)
}

// serialOps implements layerOps for the single-process trainer in element
// type T: every matrix is whole, every "collective" is the identity.
//
// At float32 it is mixed-precision training: the large per-vertex matrices
// (activations, gradients, aggregations) and the adjacency are stored and
// multiplied in float32 — half the memory traffic of the bandwidth-bound
// SpMM and GEMM sweeps — while the master weights and the optimizer (the
// engine's) and every row reduction (log-sum-exp, loss: the kernels') stay
// float64.
//
// Per-layer temporaries come from the workspace (released at endEpoch), so
// a steady-state epoch allocates nothing.
type serialOps[T dense.Elem] struct {
	cfg nn.Config
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

	// ref swaps every multiply for the pre-optimization reference kernels
	// and runs the activations as separate passes (see
	// KernelOptions.Reference). Otherwise the ReLU epilogue is folded into
	// the weight multiply and the ReLU mask into the input-gradient
	// multiply — both bit-identical to the separate passes, and each
	// possible only where that multiply is the last step before the
	// activation (see fusesForward, fusesBackward).
	ref bool
	// hs[l] is H^l as produced this epoch, kept so inputGrad(l+1) can
	// apply the fused ReLU mask (relu(z) > 0 ⟺ z > 0). maskedAhead names
	// the layer whose activationBackward was already performed by the
	// fused inputGrad.
	hs          []*dense.Of[T]
	maskedAhead int
}

// newSerialOps builds the serial layerOps for p with a fresh workspace. The
// transpose is taken only when A ≠ Aᵀ (asymmetry, as the block-row trainers
// decide it), and each operand is converted to T once, here.
func newSerialOps[T dense.Elem](cfg nn.Config, p Problem) *serialOps[T] {
	s := &serialOps[T]{
		cfg: cfg, a: sparse.As[T](p.A),
		labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(),
		ws: dense.NewWorkspaceOf[T](), cnt: make([]float64, 8),
		hs: make([]*dense.Of[T], cfg.Layers()+1),
	}
	s.at = s.a
	if asymmetry(p.A) != "" {
		s.at = sparse.As[T](p.A.Transpose())
	}
	dense.As(&s.h0, p.Features)
	return s
}

// fusesForward reports whether layer l's ReLU can ride in the epilogue of
// multiplyWeight(l): only where that multiply produces Z^l, i.e. the layer
// aggregates first.
func fusesForward(cfg nn.Config, l int) bool {
	return aggregatesFirst(cfg.Widths, l) && cfg.Activation(l).Name() == "relu"
}

// fusesBackward reports whether layer l−1's ReLU mask can ride in the
// epilogue of inputGrad(l): only where that multiply produces ∂L/∂H^{l-1},
// i.e. layer l multiplies first (otherwise the aggregation still follows).
func fusesBackward(cfg nn.Config, l int) bool {
	return !aggregatesFirst(cfg.Widths, l) && cfg.Activation(l-1).Name() == "relu"
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

func (s *serialOps[T]) multiplyWeight(x, w *dense.Of[T], l int) *dense.Of[T] {
	z := s.ws.GetUninit(x.Rows, w.Cols)
	if !s.ref && fusesForward(s.cfg, l) {
		// Fused epilogue: z holds H^l = relu(T·W) straight out of the
		// accumulation sweep. Bit-identical to Mul + ReLU (the epilogue
		// runs after each element's sum completes).
		dense.MulBiasReLU(z, x, w, nil)
	} else if s.ref {
		dense.RefMul(z, x, w)
	} else {
		dense.Mul(z, x, w)
	}
	return z
}

func (s *serialOps[T]) activationForward(act dense.Activation, z *dense.Of[T], l int) (*dense.Of[T], *actCacheOf[T]) {
	if !s.ref && fusesForward(s.cfg, l) {
		s.hs[l] = z // multiplyWeight already applied the activation
		return z, nil
	}
	h := s.ws.GetUninit(z.Rows, z.Cols)
	dense.ForwardOf(act, h, z)
	s.hs[l] = h
	return h, nil
}

func (s *serialOps[T]) lossGrad(hOut *dense.Of[T]) (float64, *dense.Of[T]) {
	grad := s.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedIntoOf(grad, hOut, s.labels, s.mask, 0, s.norm), grad
}

func (s *serialOps[T]) activationBackward(act dense.Activation, dH, h *dense.Of[T], _ *actCacheOf[T], l int) *dense.Of[T] {
	if s.maskedAhead == l {
		// inputGrad(l+1) already applied the ReLU mask in its fused
		// epilogue; dH is G^l.
		s.maskedAhead = 0
		return dH
	}
	g := s.ws.GetUninit(h.Rows, h.Cols)
	dense.BackwardOf(act, g, dH, h)
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

func (s *serialOps[T]) weightGrad(hPrev, g *dense.Of[T], l int) *dense.Of[T] {
	dW := s.ws.GetUninit(hPrev.Cols, g.Cols)
	if s.ref {
		dense.RefTMul(dW, hPrev, g)
	} else {
		dense.TMul(dW, hPrev, g)
	}
	return dW
}

func (s *serialOps[T]) inputGrad(g, w *dense.Of[T], l int) *dense.Of[T] {
	dH := s.ws.GetUninit(g.Rows, w.Rows)
	if !s.ref && fusesBackward(s.cfg, l) {
		// Fused backward epilogue: ∂L/∂H^{l-1} ⊙ relu'(Z^{l-1}) in one
		// sweep, masking on H^{l-1} (h > 0 ⟺ z > 0) and skipping the dot
		// product entirely for dead units. Bit-identical to MulT followed
		// by ReLU.Backward.
		dense.MulTReLUMask(dH, g, w, s.hs[l-1])
		s.maskedAhead = l - 1
	} else if s.ref {
		dense.RefMulT(dH, g, w)
	} else {
		dense.MulT(dH, g, w)
	}
	return dH
}

func (s *serialOps[T]) endEpoch() { s.ws.Reset() }

func (s *serialOps[T]) correctCounts(hOut *dense.Of[T], _ *actCacheOf[T], masks ...[]bool) []float64 {
	counts := countBuf(s.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, s.labels, 0, masks)
	return counts
}

func (s *serialOps[T]) reduce(vals []float64) []float64 { return vals }

func (s *serialOps[T]) gatherOutput(hOut *dense.Of[T]) *dense.Of[T] { return hOut }
