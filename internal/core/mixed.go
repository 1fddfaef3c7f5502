package core

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// mixedOps implements layerOps for mixed-precision serial training: the
// large per-vertex matrices (activations, gradients, aggregations) are
// stored and multiplied in float32, while the master weights, the optimizer
// state, and every row reduction (log-sum-exp, loss) stay float64. This is
// the classic mixed-precision recipe: halve the memory traffic of the
// bandwidth-bound SpMM/GEMM sweeps, keep the numerically sensitive
// accumulations double.
//
// The engine's layerOps contract only ever dereferences three things it
// receives from an ops implementation: the weight gradients (fed to
// Optimizer.Step against the f64 master weights), the gathered output, and
// nothing else — activations, pre-activations, and input gradients are
// opaque handles shuttled between ops calls. mixedOps exploits that: it
// returns one shared empty *dense.Matrix header for all f32-internal
// values, keeps the real float32 state keyed by layer index, and returns
// genuine float64 matrices exactly where the engine reads them.
type mixedOps struct {
	cfg nn.Config

	at32   *sparse.CSROf[float32] // explicit Aᵀ for the forward aggregation
	a32    *sparse.CSROf[float32] // A for the backward aggregation
	labels []int
	mask   []bool
	norm   int

	ws  *dense.WorkspaceOf[float32]
	cnt []float64

	// Persistent typed state: converted input features (h32[0]), their
	// aggregate (t32[1]), per-layer weight/gradient buffers, and the f64
	// output of the final gather.
	t32   []*dense.Of[float32] // T^l = Aᵀ·H^{l-1} this epoch, aggregate-first layers (t32[1] is kept for the whole run)
	h32   []*dense.Of[float32] // H^l this epoch (h32[0] is the converted input)
	z32   []*dense.Of[float32] // layer l's latest forward product: H^{l-1}·W^l, then Z^l (unset for fused ReLU layers)
	w32   []*dense.Of[float32] // W^l downcast from the f64 master weights
	dw32  []*dense.Of[float32]
	dw64  []*dense.Matrix // f64 weight gradients handed to the optimizer
	out64 *dense.Matrix   // f64 conversion of the final output

	// cur is the float32 matrix behind the handle the latest backward step
	// returned. The engine feeds each backward step's result to the next
	// (∂L/∂H^l → G^l → A·G^l or G^l·(W^l)ᵀ → ∂L/∂H^{l-1}, in either product
	// order), so one pointer follows the chain.
	cur *dense.Of[float32]

	maskedAhead int

	hdr *dense.Matrix // shared opaque handle for all f32-internal returns
}

// newMixedOps builds the float32 layerOps for p; the epilogues fuse as in
// the default f64 path.
func newMixedOps(cfg nn.Config, p Problem) *mixedOps {
	a := p.A
	L := cfg.Layers()
	m := &mixedOps{
		cfg:    cfg,
		at32:   sparse.ConvertCSR[float32](a.Transpose()),
		a32:    sparse.ConvertCSR[float32](a),
		labels: p.Labels,
		mask:   p.TrainMask,
		norm:   p.lossNormalizer(),
		ws:     dense.NewWorkspaceOf[float32](),
		cnt:    make([]float64, 8),
		t32:    make([]*dense.Of[float32], L+1),
		h32:    make([]*dense.Of[float32], L+1),
		z32:    make([]*dense.Of[float32], L+1),
		w32:    make([]*dense.Of[float32], L),
		dw32:   make([]*dense.Of[float32], L),
		dw64:   make([]*dense.Matrix, L),
		out64:  dense.New(a.Rows, cfg.Widths[L]),
		hdr:    &dense.Matrix{},
	}
	m.h32[0] = dense.NewOf[float32](a.Rows, cfg.Widths[0])
	dense.Convert(m.h32[0], p.Features)
	for l := 0; l < L; l++ {
		m.w32[l] = dense.NewOf[float32](cfg.Widths[l], cfg.Widths[l+1])
		m.dw32[l] = dense.NewOf[float32](cfg.Widths[l], cfg.Widths[l+1])
		m.dw64[l] = dense.New(cfg.Widths[l], cfg.Widths[l+1])
	}
	return m
}

func (m *mixedOps) rank() int { return 0 }

func (m *mixedOps) input() *dense.Matrix { return m.hdr }

func (m *mixedOps) forwardAggregate(_ *dense.Matrix, l int) *dense.Matrix {
	first := aggregatesFirst(m.cfg.Widths, l)
	x := m.z32[l] // H^{l-1}·W^l, from multiplyWeight
	if first {
		x = m.h32[l-1]
	}
	t := m.ws.GetUninit(m.at32.Rows, x.Cols)
	sparse.SpMM(t, m.at32, x)
	if l == 1 {
		t = m.ws.Keep(t) // T¹ outlives endEpoch: the engine reuses it every epoch
	}
	if first {
		m.t32[l] = t
	} else {
		m.z32[l] = t
	}
	return m.hdr
}

func (m *mixedOps) multiplyWeight(_, w *dense.Matrix, l int) *dense.Matrix {
	// Downcast the current f64 master weights; the optimizer updated them
	// since the last epoch.
	dense.Convert(m.w32[l-1], w)
	x := m.h32[l-1]
	if aggregatesFirst(m.cfg.Widths, l) {
		x = m.t32[l]
	}
	z := m.ws.GetUninit(x.Rows, w.Cols)
	if fusesForward(m.cfg, l) {
		dense.MulBiasReLU(z, x, m.w32[l-1], nil)
		m.h32[l] = z // z holds H^l
	} else {
		dense.Mul(z, x, m.w32[l-1])
		m.z32[l] = z
	}
	return m.hdr
}

func (m *mixedOps) activationForward(act dense.Activation, _ *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	if fusesForward(m.cfg, l) {
		return m.hdr, nil // multiplyWeight already produced H^l
	}
	z := m.z32[l]
	h := m.ws.GetUninit(z.Rows, z.Cols)
	switch act.Name() {
	case "relu":
		dense.ReLUForwardOf(h, z)
	case "log_softmax":
		dense.LogSoftmaxForwardOf(h, z)
	case "identity":
		copy(h.Data, z.Data)
	default:
		panic(fmt.Sprintf("core: activation %q has no float32 kernel", act.Name()))
	}
	m.h32[l] = h
	return m.hdr, nil
}

func (m *mixedOps) lossGrad(_ *dense.Matrix) (float64, *dense.Matrix) {
	L := m.cfg.Layers()
	hOut := m.h32[L]
	grad := m.ws.Get(hOut.Rows, hOut.Cols)
	loss := nn.NLLLossMaskedIntoOf(grad, hOut, m.labels, m.mask, 0, m.norm)
	m.cur = grad
	return loss, m.hdr
}

func (m *mixedOps) activationBackward(act dense.Activation, _, _ *dense.Matrix, _ *actCache, l int) *dense.Matrix {
	if m.maskedAhead == l {
		m.maskedAhead = 0 // inputGrad(l+1) already applied the ReLU mask: cur is G^l
		return m.hdr
	}
	dH := m.cur
	g := m.ws.GetUninit(dH.Rows, dH.Cols)
	switch act.Name() {
	case "relu":
		dense.ReLUBackwardOf(g, dH, m.h32[l])
	case "log_softmax":
		dense.LogSoftmaxBackwardOf(g, dH, m.h32[l])
	case "identity":
		copy(g.Data, dH.Data)
	default:
		panic(fmt.Sprintf("core: activation %q has no float32 kernel", act.Name()))
	}
	m.cur = g
	return m.hdr
}

func (m *mixedOps) backwardAggregate(_ *dense.Matrix, l int) *dense.Matrix {
	ax := m.ws.GetUninit(m.a32.Rows, m.cur.Cols)
	sparse.SpMM(ax, m.a32, m.cur)
	m.cur = ax
	return m.hdr
}

func (m *mixedOps) weightGrad(_, _ *dense.Matrix, l int) *dense.Matrix {
	hPrev := m.h32[l-1] // Y^l = (H^{l-1})ᵀ·(A·G^l)
	if aggregatesFirst(m.cfg.Widths, l) {
		hPrev = m.t32[l] // Y^l = (T^l)ᵀ·G^l
	}
	dense.TMul(m.dw32[l-1], hPrev, m.cur)
	// Upcast for the optimizer: master weights and optimizer state stay f64.
	dense.Convert(m.dw64[l-1], m.dw32[l-1])
	return m.dw64[l-1]
}

func (m *mixedOps) inputGrad(_, _ *dense.Matrix, l int) *dense.Matrix {
	dH := m.ws.GetUninit(m.cur.Rows, m.cfg.Widths[l-1])
	if fusesBackward(m.cfg, l) {
		dense.MulTReLUMask(dH, m.cur, m.w32[l-1], m.h32[l-1])
		m.maskedAhead = l - 1
	} else {
		dense.MulT(dH, m.cur, m.w32[l-1])
	}
	m.cur = dH
	return m.hdr
}

func (m *mixedOps) endEpoch() { m.ws.Reset() }

func (m *mixedOps) correctCounts(_ *dense.Matrix, _ *actCache, masks ...[]bool) []float64 {
	counts := countBuf(m.cnt, len(masks))
	argmaxCorrectInto(counts, m.h32[m.cfg.Layers()], m.labels, 0, masks)
	return counts
}

func (m *mixedOps) reduce(vals []float64) []float64 { return vals }

func (m *mixedOps) gatherOutput(_ *dense.Matrix) *dense.Matrix {
	dense.Convert(m.out64, m.h32[m.cfg.Layers()])
	return m.out64
}
