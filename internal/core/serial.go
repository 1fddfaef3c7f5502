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
// It is also the only trainer that accepts non-default KernelOptions
// (f32 precision, the reference kernels) via SetKernelOptions.
type Serial struct {
	// Kernel selects the compute kernels; the zero value is the default
	// f64 configuration. Set via SetKernelOptions.
	Kernel KernelOptions
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
	if err := s.Kernel.Validate(); err != nil {
		return nil, err
	}
	cfg := p.Config.WithDefaults()
	return newEngine(s.Kernel.ops(cfg, p), cfg, p).meta("serial", 1).run()
}

// ops builds the serial layerOps the options select: the float32 mixedOps,
// or serialOps over the default or the reference kernels.
func (o KernelOptions) ops(cfg nn.Config, p Problem) layerOps {
	if o.Precision == PrecisionF32 {
		return newMixedOps(cfg, p)
	}
	ops := newSerialOps(cfg, p.A, p.Features, p.Labels, p.TrainMask, p.lossNormalizer())
	ops.ref = o.Reference
	return ops
}

// serialOps implements layerOps for the single-process reference: every
// matrix is whole, every "collective" is the identity. It doubles as the
// per-step worker of the mini-batch trainer, which drives it over sampled
// subproblems via retarget.
//
// Per-layer temporaries come from the workspace (released at endEpoch) and
// the forward aggregation runs over a precomputed transpose plan, so a
// steady-state epoch allocates nothing.
type serialOps struct {
	cfg    nn.Config
	a      *sparse.CSR
	at     *sparse.TransposePlan // plan for the Aᵀ·X forward products
	h0     *dense.Matrix
	labels []int
	mask   []bool
	norm   int
	ws     *dense.Workspace
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
	hs          []*dense.Matrix
	maskedAhead int
}

// newSerialOps builds the serial layerOps with a fresh workspace and the
// transpose plan for a.
func newSerialOps(cfg nn.Config, a *sparse.CSR, h0 *dense.Matrix, labels []int, mask []bool, norm int) *serialOps {
	return &serialOps{
		cfg: cfg, a: a, at: sparse.NewTransposePlan(a), h0: h0,
		labels: labels, mask: mask, norm: norm,
		ws: dense.NewWorkspace(), cnt: make([]float64, 8),
		hs: make([]*dense.Matrix, cfg.Layers()+1),
	}
}

// retarget points the ops at a new subproblem (the mini-batch trainer's
// per-step sampled subgraph), keeping the workspace so buffer capacity is
// reused across steps. It clears the transpose plan: a plan amortizes its
// O(nnz) build only when the same A is multiplied across many epochs, so
// per-step subgraphs use the direct scatter kernel instead.
func (s *serialOps) retarget(a *sparse.CSR, h0 *dense.Matrix, labels []int, mask []bool, norm int) {
	s.a, s.at, s.h0 = a, nil, h0
	s.labels, s.mask, s.norm = labels, mask, norm
}

// setH records H^l for the fused backward mask.
func (s *serialOps) setH(l int, h *dense.Matrix) {
	if len(s.hs) <= l {
		s.hs = append(s.hs, make([]*dense.Matrix, l+1-len(s.hs))...)
	}
	s.hs[l] = h
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

func (s *serialOps) rank() int { return 0 }

func (s *serialOps) input() *dense.Matrix { return s.h0 }

func (s *serialOps) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := s.ws.GetUninit(s.a.Rows, x.Cols)
	switch {
	case s.ref && s.at != nil:
		s.at.RefSpMMT(t, x)
	case s.at != nil:
		s.at.SpMMT(t, x)
	default:
		sparse.SpMMT(t, s.a, x)
	}
	if l == 1 {
		t = s.ws.Keep(t) // T¹ outlives endEpoch: the engine reuses it every epoch
	}
	return t
}

func (s *serialOps) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
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

func (s *serialOps) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	if !s.ref && fusesForward(s.cfg, l) {
		s.setH(l, z) // multiplyWeight already applied the activation
		return z, nil
	}
	h := s.ws.GetUninit(z.Rows, z.Cols)
	act.Forward(h, z)
	s.setH(l, h)
	return h, nil
}

func (s *serialOps) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := s.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedInto(grad, hOut, s.labels, s.mask, 0, s.norm), grad
}

func (s *serialOps) activationBackward(act dense.Activation, dH, h *dense.Matrix, _ *actCache, l int) *dense.Matrix {
	if s.maskedAhead == l {
		// inputGrad(l+1) already applied the ReLU mask in its fused
		// epilogue; dH is G^l.
		s.maskedAhead = 0
		return dH
	}
	g := s.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	return g
}

func (s *serialOps) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	// A·G^l is reused for both Y and ∂L/∂H (§IV-A-4); A·(G^l(W^l)ᵀ) is
	// ∂L/∂H^{l-1} itself.
	ax := s.ws.GetUninit(s.a.Rows, x.Cols)
	if s.ref {
		sparse.RefSpMM(ax, s.a, x)
	} else {
		sparse.SpMM(ax, s.a, x)
	}
	return ax
}

func (s *serialOps) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	dW := s.ws.GetUninit(hPrev.Cols, g.Cols)
	if s.ref {
		dense.RefTMul(dW, hPrev, g)
	} else {
		dense.TMul(dW, hPrev, g)
	}
	return dW
}

func (s *serialOps) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
	dH := s.ws.GetUninit(g.Rows, w.Rows)
	if !s.ref && fusesBackward(s.cfg, l) && l-1 < len(s.hs) && s.hs[l-1] != nil {
		// Fused backward epilogue: ∂L/∂H^{l-1} ⊙ relu'(Z^{l-1}) in one
		// sweep, masking on H^{l-1} (h > 0 ⟺ z > 0) and skipping the dot
		// product entirely for dead units. Bit-identical to MulT followed
		// by ReLU.Backward.
		dense.MulTReLUMask(dH, g, w, s.hs[l-1])
		s.maskedAhead = l - 1
	} else {
		dense.MulT(dH, g, w)
	}
	return dH
}

func (s *serialOps) endEpoch() { s.ws.Reset() }

func (s *serialOps) correctCounts(hOut *dense.Matrix, _ *actCache, masks ...[]bool) []float64 {
	counts := countBuf(s.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, s.labels, 0, masks)
	return counts
}

func (s *serialOps) reduce(vals []float64) []float64 { return vals }

func (s *serialOps) gatherOutput(hOut *dense.Matrix) *dense.Matrix { return hOut }
