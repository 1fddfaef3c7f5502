package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/dense"
	"repro/internal/nn"
)

// layerOps is the contract a decomposition implements for the shared
// training engine: only the layout-specific SpMM + collective choreography
// (and its cost charges). The engine owns everything the five algorithms
// have in common — the epoch loop, activation bookkeeping, loss
// normalization, optimizer steps, per-epoch accuracy tracking, and
// final-output assembly — so features like new optimizers land once and
// work for every algorithm.
//
// Methods are called in a fixed order on every rank (the engine code is
// identical everywhere), which keeps the simulated collectives aligned.
// There are three implementations: serialOps, rowRank (1D, 1.5D) and
// meshRank (2D, 3D).
type layerOps interface {
	// rank returns this rank's id (0 for the serial layouts). The engine
	// uses it to write checkpoints on rank 0 only — the state is
	// replicated, so one copy is the whole world's.
	rank() int

	// input returns what forwardAggregate reads H⁰ from at l = 1: this
	// rank's block of the input features, except on a block-row rank of a
	// relabeled problem, which reads its rows out of the whole matrix
	// (rowRank.aggregateInput).
	input() *dense.Matrix

	// forwardAggregate returns this rank's block of Aᵀ·X, where x is this
	// rank's block of X: H^{l-1} when layer l aggregates first, H^{l-1}·W^l
	// when it multiplies first (see aggregatesFirst). Its width — buffers,
	// reduce-scatter counts, SpMM charges — is x.Cols, never a configured
	// layer width, except that the block-row trainer runs the l = 1 product
	// in column panels of x no wider than the widest later layer
	// (rowRank.aggregateInput); l is the 1-based layer. The engine calls it
	// with l = 1 once per (A, H⁰) — see aggregateInput — and keeps that
	// result across endEpoch, so at l = 1 the implementation returns storage
	// endEpoch does not recycle (Workspace.Keep, or a matrix of its own) and
	// counts it as resident; for l > 1 the result is epoch-scoped like every
	// other temporary.
	forwardAggregate(x *dense.Matrix, l int) *dense.Matrix

	// multiplyWeight returns this rank's block of X·W for the replicated
	// weight matrix w of layer l, in form f: x is T^l = Aᵀ·H^{l-1} when the
	// layer aggregates first (the product is then Z^l, and with fusedReLU
	// H^l), H^{l-1} when it multiplies first (then sparseLeft when H^{l-1} is
	// a ReLU output, plainGEMM otherwise). The ReLU must be bit-identical to
	// dense.ReLU applied to the finished product: an implementation applies
	// it to each element once that element's sum is complete (see
	// fusesForward).
	multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix

	// activationForward applies act to z, returning this rank's H block.
	// Every layout applies it locally: a row-wise act runs only at the output
	// layer, whose rows each rank holds whole (on the 2D/3D mesh, z crosses
	// into that layout here when the layer multiplies first). The engine
	// skips it for a layer whose multiplyWeight applied the ReLU.
	activationForward(act dense.Activation, z *dense.Matrix, l int) *dense.Matrix

	// lossGrad returns this rank's loss contribution and its block of
	// ∂L/∂H^L, both normalized by the global supervised-vertex count.
	lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix)

	// activationBackward returns G^l = act'(∂L/∂H^l) from the layer's
	// forward output h = H^l (dense.Activation.Backward reads the output).
	// The engine skips it for a layer whose ReLU mask inputGrad(·, l+1)
	// applied.
	activationBackward(act dense.Activation, dH, h *dense.Matrix, l int) *dense.Matrix

	// backwardAggregate returns this rank's block of A·X at width x.Cols:
	// X is G^l in a multiply-first layer (the result feeds weightGrad and
	// inputGrad), G^l·(W^l)ᵀ in an aggregate-first one (the result is
	// ∂L/∂H^{l-1}). Never called at l = 1.
	backwardAggregate(x *dense.Matrix, l int) *dense.Matrix

	// weightGrad returns the fully replicated Y^l = hPrevᵀ·g, in form f. The
	// operands are (H^{l-1}, A·G^l) after a backwardAggregate in a
	// multiply-first layer — sparseLeft when H^{l-1} is a ReLU output — and
	// (T^l, G^l) straight from activationBackward in an aggregate-first one —
	// sparseRight when layer l is a ReLU layer. A layout whose product reads
	// full rows of g (2D, 3D) gathers them here unless it already holds them
	// — the mesh's output layer holds whole rows — and inputGrad(g) reuses
	// that gather.
	weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix

	// inputGrad returns this rank's block of g·(W^l)ᵀ for the replicated w:
	// ∂L/∂H^{l-1} when g is A·G^l, its pre-aggregation form when g is G^l.
	// A non-nil mask is this rank's block of H^{l-1}, and the result is then
	// (g·(W^l)ᵀ) ⊙ 1[mask > 0] — G^{l-1} of a ReLU layer, bit-identical to
	// dense.ReLU's backward on the finished product (see fusesBackward).
	// Called only for l > 1, always after weightGrad(·, g, l).
	inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix

	// release hands back a temporary the engine has read for the last time:
	// one an earlier method returned this epoch, at its last reader (see
	// epoch). It returns the matrix's buffer to the rank's workspace —
	// with whatever the implementation derived from it and cached, such as
	// the mesh's gathered full rows — or, when the matrix wraps a fabric
	// payload (a team all-reduce or fiber reduce-scatter result), the
	// payload to the fabric, and does nothing for storage neither hands out
	// (T¹, H⁰).
	release(m *dense.Matrix)

	// endEpoch charges per-epoch overhead after the optimizer step and
	// returns every buffer the epoch still holds.
	endEpoch()

	// correctCounts returns, per mask (nil = all vertices), this rank's
	// count of vertices whose output argmax matches the label, counting
	// every global row on exactly one rank. Every layout holds whole output
	// rows, so it is local.
	correctCounts(hOut *dense.Matrix, masks ...[]bool) []float64

	// reduce sums per-rank scalar contributions across all ranks
	// (identity for serial).
	reduce(vals []float64) []float64

	// gatherOutput assembles the global output matrix on rank 0 and
	// returns nil on every other rank.
	gatherOutput(hOut *dense.Matrix) *dense.Matrix
}

// engine runs per-rank GCN training over a layerOps implementation. One
// engine instance executes on every rank; all five trainers share it.
//
// The per-epoch activation/gradient bookkeeping slices live on the engine
// and are reused across epochs: together with the layerOps drawing their
// matrix temporaries from a dense.Workspace and their payloads from the
// comm fabric's arenas, the steady-state epoch loop performs zero heap
// allocations once the arenas are sized. The engine hands each temporary
// back (release) after its last reader — the dataflow is the same on every
// rank and every trainer, so the release points are written once, in
// layerForward and epoch — and the implementations release their own
// scratch and received payloads likewise, so a rank's workspace and fabric
// hold the epoch's live set, not the sum of its draws; endEpoch
// returns the rest: H^L, which the accuracy reads, and the weight
// gradients, which the optimizer reads.
type engine struct {
	ops  layerOps
	cfg  nn.Config
	opt  nn.Optimizer
	ckpt checkpoint.Options

	// algo and world describe the run for the snapshot's advisory
	// metadata ("" / 0 when the trainer didn't set them); drain is the
	// optional cooperative-shutdown poll (Problem.Drain).
	algo  string
	world int
	drain func() bool

	// labels and the masks are global (every rank holds them); they feed
	// the final accuracy and the optional per-epoch tracking.
	labels    []int
	trainMask []bool
	valMask   []bool

	// t1 is this rank's block of T¹ = Aᵀ·H⁰, set by aggregateInput. H⁰ is
	// the input, so T¹ is a constant of the run, not of the epoch.
	t1 *dense.Matrix

	// Reused per-epoch bookkeeping: activations, the aggregates T^l of the
	// aggregate-first layers, weight gradients, the 1-slot loss-reduction
	// buffer, the drain-vote buffer, and the accuracy mask list.
	h        []*dense.Matrix
	t        []*dense.Matrix
	dW       []*dense.Matrix
	scalar   []float64
	drainBuf []float64
	masks    [][]bool
}

// newEngine builds the engine for one full training run of p.
func newEngine(ops layerOps, cfg nn.Config, p Problem) *engine {
	L := cfg.Layers()
	return &engine{
		ops:       ops,
		cfg:       cfg,
		opt:       cfg.NewOptimizer(),
		ckpt:      p.Checkpoint,
		drain:     p.Drain,
		labels:    p.Labels,
		trainMask: p.TrainMask,
		valMask:   p.ValMask,
		h:         make([]*dense.Matrix, L+1),
		t:         make([]*dense.Matrix, L+1),
		dW:        make([]*dense.Matrix, L),
		scalar:    make([]float64, 1),
	}
}

// meta records the algorithm name and world size for snapshot metadata.
// Trainers call it between newEngine and run; the zero values are legal
// (snapshots then just carry no provenance).
func (e *engine) meta(algo string, world int) *engine {
	e.algo, e.world = algo, world
	return e
}

// aggregatesFirst reports the product order of layer l of a network with
// the given widths f⁰..f^L. Z^l = Aᵀ·H^{l-1}·W^l associates either way, and
// every decomposition's aggregation cost — SpMM columns and words on the
// network — is linear in the width of the dense matrix aggregated, so each
// layer aggregates on its narrower side:
//
//   - aggregate first (f^{l-1} ≤ f^l): T^l = Aᵀ·H^{l-1}, Z^l = T^l·W^l;
//     backward Y^l = (T^l)ᵀ·G^l and ∂L/∂H^{l-1} = A·(G^l·(W^l)ᵀ), both
//     aggregations at width f^{l-1};
//   - multiply first (f^l < f^{l-1}): Z^l = Aᵀ·(H^{l-1}·W^l); backward
//     Y^l = (H^{l-1})ᵀ·(A·G^l) and ∂L/∂H^{l-1} = (A·G^l)·(W^l)ᵀ, both at
//     width f^l.
//
// Layer 1 aggregates first whatever its widths: T¹ = Aᵀ·H⁰ is a constant of
// the run, so that order costs no aggregation at all after aggregateInput.
// The order is a function of the widths alone — every rank, the Reference
// oracle and a resumed run choose alike.
func aggregatesFirst(widths []int, l int) bool {
	return l == 1 || widths[l-1] <= widths[l]
}

// aggregateInput computes T¹ = Aᵀ·H⁰. Every epoch and the final forward
// pass read it, so whoever drives epoch or forward calls this first; run
// does, once.
func (e *engine) aggregateInput() {
	e.t1 = e.ops.forwardAggregate(e.ops.input(), 1)
}

// reluOutput reports whether H^l is a ReLU output. About half of it is then
// exact zeros, and so is its masked gradient G^l; the engine decides this,
// and every choice below, from the layer's activation alone, never from the
// data.
func reluOutput(cfg nn.Config, l int) bool {
	return l >= 1 && cfg.Activation(l).Name() == "relu"
}

// fusesForward reports whether layer l's ReLU rides in the epilogue of
// multiplyWeight(l): only where that multiply produces Z^l, i.e. the layer
// aggregates first.
func fusesForward(cfg nn.Config, l int) bool {
	return aggregatesFirst(cfg.Widths, l) && reluOutput(cfg, l)
}

// fusesBackward reports whether layer l−1's ReLU mask rides in the epilogue
// of inputGrad(l): only where that multiply produces ∂L/∂H^{l-1}, i.e. layer
// l multiplies first (otherwise the aggregation still follows).
func fusesBackward(cfg nn.Config, l int) bool {
	return !aggregatesFirst(cfg.Widths, l) && reluOutput(cfg, l-1)
}

// productForm is how a dense product of the layer ops runs: a plain GEMM,
// with the layer's ReLU in its epilogue (fusesForward), or as an SpMM over
// the nonzeros of the operand that is a ReLU output or a ReLU layer's masked
// gradient — the left one (X of X·W, H^{l-1} of (H^{l-1})ᵀ·AG) or the right
// one (G^l of (T^l)ᵀ·G^l). sparseLeft gives the plain GEMM's bits on every
// input, sparseRight wherever T^l is finite (see weightProduct).
type productForm uint8

const (
	plainGEMM productForm = iota
	fusedReLU
	sparseLeft
	sparseRight
)

// forwardForm is the form of layer l's multiplyWeight.
func forwardForm(cfg nn.Config, l int) productForm {
	switch {
	case fusesForward(cfg, l):
		return fusedReLU
	case !aggregatesFirst(cfg.Widths, l) && reluOutput(cfg, l-1):
		return sparseLeft
	}
	return plainGEMM
}

// weightGradForm is the form of layer l's weightGrad.
func weightGradForm(cfg nn.Config, l int) productForm {
	switch {
	case aggregatesFirst(cfg.Widths, l) && reluOutput(cfg, l):
		return sparseRight
	case !aggregatesFirst(cfg.Widths, l) && reluOutput(cfg, l-1):
		return sparseLeft
	}
	return plainGEMM
}

// weightMul computes dst = x·w in form f (plainGEMM, fusedReLU or
// sparseLeft), or dst += x·w when load is set.
func weightMul(dst, x, w *dense.Matrix, f productForm, load bool) {
	switch {
	case f == fusedReLU && load:
		dense.MulAddBiasReLU(dst, x, w, nil)
	case f == fusedReLU:
		dense.MulBiasReLU(dst, x, w, nil)
	case f == sparseLeft && load:
		dense.MulAddNZ(dst, x, w)
	case f == sparseLeft:
		dense.MulNZ(dst, x, w)
	case load:
		dense.MulAdd(dst, x, w)
	default:
		dense.Mul(dst, x, w)
	}
}

// weightProduct computes dst = hPrevᵀ·g in form f (plainGEMM, sparseLeft or
// sparseRight), on the Reference kernels when ref is set. sparseRight is
// (gᵀ·hPrev)ᵀ over g's nonzeros, through a scratch from ws: each element
// sums the terms with g ≠ 0 where TMul sums those with hPrev ≠ 0, which
// differs only by ±0·x terms — nothing, to a sum started at +0, when x is
// finite — so the bits are TMul's wherever hPrev is finite. The reference
// computes the same reoriented product.
func weightProduct(ws *dense.Workspace, dst, hPrev, g *dense.Matrix, f productForm, ref bool) {
	switch {
	case f == sparseRight:
		yt := ws.GetUninit(g.Cols, hPrev.Cols)
		if ref {
			dense.RefTMul(yt, g, hPrev)
		} else {
			dense.TMulNZ(yt, g, hPrev)
		}
		yt.TransposeInto(dst)
		ws.Release(yt)
	case ref:
		dense.RefTMul(dst, hPrev, g)
	case f == sparseLeft:
		dense.TMulNZ(dst, hPrev, g)
	default:
		dense.TMul(dst, hPrev, g)
	}
}

// layerForward returns H^l = σ(Aᵀ·H^{l-1}·W^l) in layer l's product order
// and the aggregate T^l when that order forms one (nil otherwise). A fused
// layer's multiply applies the ReLU itself.
//
// It releases what it formed and read last: H^{l-1}·W^l after its
// aggregation, Z^l after its activation. hPrev and T^l stay with the
// caller, which reads them again in the backward pass.
func (e *engine) layerForward(hPrev, w *dense.Matrix, l int) (h, t *dense.Matrix) {
	var z *dense.Matrix
	form := forwardForm(e.cfg, l)
	if aggregatesFirst(e.cfg.Widths, l) {
		t = e.t1
		if l > 1 {
			t = e.ops.forwardAggregate(hPrev, l)
		}
		z = e.ops.multiplyWeight(t, w, l, form)
	} else {
		x := e.ops.multiplyWeight(hPrev, w, l, form)
		z = e.ops.forwardAggregate(x, l)
		e.ops.release(x)
	}
	if form == fusedReLU {
		return z, t
	}
	h = e.ops.activationForward(e.cfg.Activation(l), z, l)
	e.ops.release(z)
	return h, t
}

// epoch runs one forward pass, loss reduction, backward recursion, and
// optimizer step, updating weights in place. It returns the global loss
// and the output-layer activation block (for accuracy tracking).
// aggregateInput must have run.
func (e *engine) epoch(weights []*dense.Matrix) (float64, *dense.Matrix) {
	L := e.cfg.Layers()
	W, H, aggs, dW := weights, e.h, e.t, e.dW

	// Forward: Z^l = Aᵀ H^{l-1} W^l, H^l = σ(Z^l). Activations — and T^l
	// where the layer forms it — are retained for backpropagation: the
	// O(nfL) memory cost the paper's conclusion discusses.
	for l := 1; l <= L; l++ {
		H[l], aggs[l] = e.layerForward(H[l-1], W[l-1], l)
	}

	local, dH := e.ops.lossGrad(H[L])
	e.scalar[0] = local
	loss := e.ops.reduce(e.scalar)[0]

	// Backward (§III-D), G^l = act.Backward(∂L/∂H^l, H^l), then in the
	// layer's product order (aggregatesFirst):
	//   multiply first:  AG = A G^l,  Y^l = (H^{l-1})ᵀ AG,  ∂L/∂H^{l-1} = AG (W^l)ᵀ
	//   aggregate first: Y^l = (T^l)ᵀ G^l,  ∂L/∂H^{l-1} = A (G^l (W^l)ᵀ)
	// where Y^l = (H^{l-1})ᵀ (A G^l) = (Aᵀ H^{l-1})ᵀ G^l by transposition
	// alone (A need not be symmetric). A multiply-first layer over a ReLU
	// layer hands back G^{l-1} itself, the mask applied in its last product.
	// The recursion ends at l = 1, where no input gradient is wanted: the
	// widest layer is never aggregated.
	//
	// Every temporary is released after its last reader: ∂L/∂H^l after its
	// activation's backward, G^l, A·G^l, T^l (l > 1) and G^l·(W^l)ᵀ after
	// their last product, and H^l (l < L) at the end of step l — step l+1
	// read it as H^{l-1} or a mask before. H^L stays for the accuracy, T¹
	// for the next epoch, and dW for the optimizer.
	for l := L; l >= 1; l-- {
		w, g := W[l-1], dH
		if l == L || !fusesBackward(e.cfg, l+1) {
			g = e.ops.activationBackward(e.cfg.Activation(l), dH, H[l], l)
			e.ops.release(dH)
		}
		if aggregatesFirst(e.cfg.Widths, l) {
			dW[l-1] = e.ops.weightGrad(aggs[l], g, l, weightGradForm(e.cfg, l))
			if l > 1 {
				e.ops.release(aggs[l])
				gw := e.ops.inputGrad(g, w, l, nil)
				e.ops.release(g)
				dH = e.ops.backwardAggregate(gw, l)
				e.ops.release(gw)
			} else {
				e.ops.release(g)
			}
		} else {
			ag := e.ops.backwardAggregate(g, l)
			e.ops.release(g)
			dW[l-1] = e.ops.weightGrad(H[l-1], ag, l, weightGradForm(e.cfg, l))
			var mask *dense.Matrix
			if fusesBackward(e.cfg, l) {
				mask = H[l-1]
			}
			dH = e.ops.inputGrad(ag, w, l, mask)
			e.ops.release(ag)
		}
		if l < L {
			e.ops.release(H[l])
		}
	}

	// Weight update: gradients are replicated, so the optimizer runs
	// identically on every rank with no communication (§III-D).
	e.opt.Step(weights, dW)
	return loss, H[L]
}

// forward runs inference with fixed weights and returns this rank's block
// of H^L. Like epoch, it starts from the T¹ aggregateInput left.
func (e *engine) forward(weights []*dense.Matrix) *dense.Matrix {
	var out *dense.Matrix
	for l := 1; l <= e.cfg.Layers(); l++ {
		h, t := e.layerForward(out, weights[l-1], l)
		if l > 1 {
			e.ops.release(t)
		}
		e.ops.release(out)
		out = h
	}
	return out
}

// run executes the full training loop — Config.Epochs epochs, a final
// forward pass, and the output gather — returning the Result on rank 0 and
// nil elsewhere. When Problem.Checkpoint is enabled, it first resumes from
// the latest snapshot in the checkpoint directory (if any) and then writes
// one every Checkpoint.Every epochs plus one at the end; the resumed run
// replays the identical deterministic schedule, so its losses and weights
// are bit-for-bit the ones the uninterrupted run would have produced.
func (e *engine) run() (*Result, error) {
	weights := nn.InitWeights(e.cfg)
	losses := make([]float64, 0, e.cfg.Epochs)
	var trainAcc, valAcc []float64
	track := e.valMask != nil
	trainTotal := nn.CountMask(e.trainMask, len(e.labels))
	valTotal := nn.CountMask(e.valMask, 0)
	if track {
		trainAcc = make([]float64, 0, e.cfg.Epochs)
		valAcc = make([]float64, 0, e.cfg.Epochs)
		e.masks = [][]bool{e.trainMask, e.valMask}
	}

	start, resumed := 0, 0
	if e.ckpt.Enabled() {
		snap, err := e.loadLatest(weights)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			start, resumed = snap.Epoch, snap.Epoch
			losses = append(losses, snap.Losses...)
			if track {
				trainAcc = append(trainAcc, snap.TrainAcc...)
				valAcc = append(valAcc, snap.ValAcc...)
			}
		}
	}

	// T¹ is derived state: a resumed run rebuilds it here, no snapshot
	// carries it.
	e.aggregateInput()
	drained := 0
	for epoch := start; epoch < e.cfg.Epochs; epoch++ {
		loss, hOut := e.epoch(weights)
		losses = append(losses, loss)
		if track {
			// Per-epoch accuracy of this epoch's forward output (the
			// embeddings the loss was computed on, before the update).
			counts := e.ops.reduce(e.ops.correctCounts(hOut, e.masks...))
			trainAcc = append(trainAcc, counts[0]/float64(trainTotal))
			valAcc = append(valAcc, counts[1]/float64(valTotal))
		}
		e.ops.endEpoch()
		done := epoch + 1
		wantSnap := (e.ckpt.Every > 0 && done%e.ckpt.Every == 0) || done == e.cfg.Epochs
		if e.drainRequested() {
			// The whole world agreed to drain: finish this epoch, write a
			// final snapshot (rank 0), and stop cleanly.
			drained = done
			wantSnap = true
		}
		if e.ckpt.Enabled() && e.ops.rank() == 0 && wantSnap {
			e.save(done, weights, losses, trainAcc, valAcc)
		}
		if drained > 0 {
			break
		}
	}

	full := e.ops.gatherOutput(e.forward(weights))
	if full == nil {
		return nil, nil
	}
	return &Result{
		Weights:       weights,
		Output:        full,
		Losses:        losses,
		Accuracy:      nn.Accuracy(full, e.labels),
		TrainAccuracy: trainAcc,
		ValAccuracy:   valAcc,
		ResumedEpoch:  resumed,
		DrainedEpoch:  drained,
	}, nil
}

// drainRequested polls Problem.Drain and reduces the votes across the
// world, so every rank takes the same branch even when the drain signal
// (typically SIGTERM) lands on different ranks at different instants — a
// rank that was not signalled drains anyway the moment any peer was. The
// collective only runs when a drain hook is installed, keeping default
// runs' communication ledgers and allocation counts untouched.
func (e *engine) drainRequested() bool {
	if e.drain == nil {
		return false
	}
	if e.drainBuf == nil {
		e.drainBuf = make([]float64, 1)
	}
	e.drainBuf[0] = 0
	if e.drain() {
		e.drainBuf[0] = 1
	}
	return e.ops.reduce(e.drainBuf)[0] > 0
}

// loadLatest restores the newest checkpoint into weights and the
// optimizer, returning the snapshot (nil when the directory holds none —
// a fresh run). Every rank loads the same file: the state is replicated,
// so the restore is communication-free. A snapshot that cannot belong to
// this run — different seed, optimizer, or weight shapes — is a hard
// error: silently training on from mismatched state would be far worse
// than failing.
func (e *engine) loadLatest(weights []*dense.Matrix) (*checkpoint.Snapshot, error) {
	path, err := checkpoint.Latest(e.ckpt.Dir)
	if err != nil || path == "" {
		return nil, err
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	switch {
	case snap.Seed != e.cfg.Seed:
		return nil, fmt.Errorf("core: resume from %s: seed %d, run has %d", path, snap.Seed, e.cfg.Seed)
	case snap.OptName != e.opt.Name():
		return nil, fmt.Errorf("core: resume from %s: optimizer %q, run has %q", path, snap.OptName, e.opt.Name())
	case snap.Epoch > e.cfg.Epochs:
		return nil, fmt.Errorf("core: resume from %s: snapshot has %d epochs, run wants only %d", path, snap.Epoch, e.cfg.Epochs)
	case len(snap.Weights) != len(weights):
		return nil, fmt.Errorf("core: resume from %s: %d weight matrices, run has %d", path, len(snap.Weights), len(weights))
	case len(snap.Losses) != snap.Epoch:
		return nil, fmt.Errorf("core: resume from %s: %d losses for %d epochs", path, len(snap.Losses), snap.Epoch)
	}
	for l := range weights {
		if snap.Weights[l].Rows != weights[l].Rows || snap.Weights[l].Cols != weights[l].Cols {
			return nil, fmt.Errorf("core: resume from %s: layer %d weights %dx%d, run has %dx%d",
				path, l, snap.Weights[l].Rows, snap.Weights[l].Cols, weights[l].Rows, weights[l].Cols)
		}
		copy(weights[l].Data, snap.Weights[l].Data)
	}
	if err := e.opt.Restore(snap.OptStep, snap.OptState); err != nil {
		return nil, fmt.Errorf("core: resume from %s: %w", path, err)
	}
	return snap, nil
}

// save writes one checkpoint. A failed write panics rather than returning:
// rank 0 cannot return early while its peers keep training (the world
// would deadlock in the next collective), but a panic follows the same
// path as a wire failure — the launcher recovers it, broadcasts an abort,
// and every rank exits promptly with the root cause.
func (e *engine) save(epoch int, weights []*dense.Matrix, losses, trainAcc, valAcc []float64) {
	step, state := e.opt.Snapshot()
	_, err := checkpoint.Save(e.ckpt.Dir, &checkpoint.Snapshot{
		Epoch:     epoch,
		Seed:      e.cfg.Seed,
		Weights:   weights,
		OptName:   e.opt.Name(),
		OptStep:   step,
		OptState:  state,
		Losses:    losses,
		TrainAcc:  trainAcc,
		ValAcc:    valAcc,
		World:     e.world,
		Algorithm: e.algo,
	})
	if err != nil {
		panic(fmt.Sprintf("core: rank 0 checkpoint at epoch %d: %v", epoch, err))
	}
	// Retention is hygiene: a failed prune must not kill a healthy run,
	// and the snapshot just written is always among the survivors.
	_ = checkpoint.Prune(e.ckpt.Dir, e.ckpt.Keep)
}

// argmaxCorrectInto counts, per mask (nil = all vertices), the rows of logp
// (holding full feature rows) whose argmax matches the label, writing into
// counts (len(masks) long, zeroed by the caller); rowOffset maps local row
// i to global vertex rowOffset+i. It is the shared per-block accuracy
// kernel behind correctCounts; ranks pass a persistent buffer so the
// accuracy path stays allocation-free.
func argmaxCorrectInto(counts []float64, logp *dense.Matrix, labels []int, rowOffset int, masks [][]bool) {
	for i := 0; i < logp.Rows; i++ {
		row := logp.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best != labels[rowOffset+i] {
			continue
		}
		for m, mask := range masks {
			if mask == nil || mask[rowOffset+i] {
				counts[m]++
			}
		}
	}
}

// countBuf reslices a rank's persistent count buffer to n zeroed slots.
func countBuf(buf []float64, n int) []float64 {
	out := buf[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// cfgWeightWords returns the modeled resident footprint of the replicated
// weight matrices implied by cfg.
func cfgWeightWords(cfg nn.Config) int64 {
	var s int64
	for l := 0; l < cfg.Layers(); l++ {
		s += int64(cfg.Widths[l]) * int64(cfg.Widths[l+1])
	}
	return s
}
