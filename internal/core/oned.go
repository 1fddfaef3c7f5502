package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// OneD implements the paper's 1D algorithm (§IV-A): Aᵀ is distributed in
// block rows (equivalently, A in block columns), H and G in block rows, W
// fully replicated.
//
// Forward propagation is Algorithm 1: a 1D block-row SpMM in which every
// process broadcasts its H block (cost β·edgecut·f with random-partition
// edgecut ≈ n(P−1)/P). Backward uses the large 1D outer product
// A G = Σᵢ A(:,i)·Gᵢ with a reduce-scatter (β·nf), and the small outer
// product Y = (H)ᵀ(AG) with an f×f all-reduce.
type OneD struct {
	p       int
	mach    costmodel.Machine
	cluster *comm.Cluster
	ext     *comm.Comm // external transport endpoint; see SetTransportComm

	// Halo enables the sparsity-aware halo exchange (§IV-A-1): instead of
	// broadcasting whole dense blocks (≈ n·f words per product), each rank
	// fetches point-to-point only the rows its local Aᵀ block references
	// (edgecut·f words), with bit-identical results. Set before Train.
	Halo bool
	// Layout optionally replaces the default near-equal Block1D row
	// distribution with explicit contiguous block boundaries — typically
	// partition.Assignment.ContigLayout output after PartitionProblem
	// relabeling. Must cover the problem's vertices with exactly p blocks.
	// Set before Train; nil keeps the default.
	Layout partition.Layout1D

	// Overlap hides communication behind local SpMM on the modeled
	// timeline. In broadcast mode, block j+1's dense broadcast is in
	// flight while block j multiplies (the SUMMA prefetch pattern); in
	// halo mode, the indexed row fetch is issued asynchronously, interior
	// rows — those with no remote dependencies — multiply immediately, and
	// frontier rows multiply after the Wait. Both paths keep the exact
	// accumulation order and are bit-identical to the synchronous runs.
	// Set before Train.
	Overlap bool
}

// NewOneD returns a 1D trainer over p simulated ranks.
func NewOneD(p int, mach costmodel.Machine) *OneD {
	return &OneD{
		p:       p,
		mach:    mach,
		cluster: comm.NewCluster(p, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}),
	}
}

// Name implements Trainer.
func (t *OneD) Name() string { return "1d" }

// Ranks returns the simulated rank count.
func (t *OneD) Ranks() int { return t.p }

// Cluster implements DistTrainer.
func (t *OneD) Cluster() *comm.Cluster { return t.cluster }

// runRanks validates p, builds each rank's layerOps, and executes body on
// every simulated rank. Train drives it with the standard engine run; the
// steady-state allocation tests drive a custom epoch loop through it.
func (t *OneD) runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return err
	}
	cfg := p.Config.WithDefaults()
	n := p.A.Rows
	if t.p > n {
		return fmt.Errorf("core: 1d trainer with %d ranks needs at least %d vertices, got %d", t.p, t.p, n)
	}
	at := p.A.Transpose() // read-only global view; ranks extract blocks
	blk, err := layout1DFor(t.Layout, n, t.p)
	if err != nil {
		return err
	}
	run := func(c *comm.Comm) error {
		r := &oneDRank{
			comm: c, mach: t.mach, cfg: cfg, blk: blk, halo: t.Halo, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
		}
		r.setup(at, p.Features)
		return body(r, cfg, p)
	}
	if t.ext != nil {
		return run(t.ext)
	}
	return t.cluster.Run(run)
}

// Train implements Trainer.
func (t *OneD) Train(p Problem) (*Result, error) {
	var result Result
	err := t.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
		out, err := newEngine(ops, cfg, prob).meta(t.Name(), t.p).run()
		if err != nil {
			return err
		}
		if out != nil {
			result = *out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &result, nil
}

// oneDRank holds one rank's state during 1D training and implements
// layerOps with the 1D collective choreography. Per-epoch temporaries come
// from ws (reset at endEpoch, together with the fabric's payload pool).
type oneDRank struct {
	comm    *comm.Comm
	mach    costmodel.Machine
	cfg     nn.Config
	blk     partition.Layout1D
	halo    bool
	overlap bool
	labels  []int
	mask    []bool
	norm    int
	n       int

	lo, hi  int
	atBlk   []*sparse.CSR         // atBlk[j] = Aᵀ(my rows, rows of block j); dense-broadcast mode
	atLocal *sparse.CSR           // Aᵀ(my rows, :) for the backward outer product
	atPlan  *sparse.TransposePlan // gather plan for (Aᵀ(my rows, :))ᵀ·G — no per-call searches
	h0      *dense.Matrix
	memBase int64

	ws        *dense.Workspace
	dims      []int     // scratch shape header for outbound payloads
	rsCounts  []int     // reduce-scatter counts, refilled per layer
	cnt       []float64 // correctCounts buffer
	haloParts []comm.Payload

	// Halo-exchange state (r.halo only), built once in setup: the fetch
	// plan over the column blocking, the row indices each peer requested
	// from this rank, and the peers this rank receives from per exchange.
	plan     *sparse.HaloPlan
	sendIdx  [][]int
	recvFrom []bool

	// Interior/frontier split (r.halo && r.overlap only), built once in
	// setup: interior rows have no nonzeros outside the diagonal block and
	// multiply while the halo fetch is in flight; frontier rows multiply
	// after its Wait. interiorNNZ (diagonal-block nnz on interior rows)
	// apportions the diagonal block's unchanged SpMM charge between the
	// two passes.
	interior    []int
	frontier    []int
	interiorNNZ int64
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *oneDRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

func (r *oneDRank) setup(at *sparse.CSR, features *dense.Matrix) {
	me := r.comm.Rank()
	r.lo, r.hi = r.blk.Lo(me), r.blk.Hi(me)
	r.atLocal = at.ExtractBlock(r.lo, r.hi, 0, r.n)
	r.atPlan = sparse.NewTransposePlan(r.atLocal)
	if r.halo {
		// The diagonal block (skip = me) stays uncompacted: it multiplies
		// the local x directly, so no fetch list and no row gather.
		r.plan = sparse.BuildHaloPlan(r.atLocal, partition.Offsets1D(r.blk), me)
		r.sendIdx, r.recvFrom = exchangeHaloPlan(r.comm.World(), r.plan.Need)
		r.haloParts = make([]comm.Payload, r.comm.Size())
		if r.overlap {
			remote := make([]*sparse.CSR, len(r.plan.Blocks))
			copy(remote, r.plan.Blocks)
			remote[me] = nil
			r.interior, r.frontier = haloRowSplit(r.hi-r.lo, remote)
			r.interiorNNZ = sparse.RowListNNZ(r.plan.Blocks[me], r.interior)
		}
	} else {
		r.atBlk = make([]*sparse.CSR, r.comm.Size())
		for j := 0; j < r.comm.Size(); j++ {
			r.atBlk[j] = r.atLocal.ExtractBlock(0, r.hi-r.lo, r.blk.Lo(j), r.blk.Hi(j))
		}
	}
	r.h0 = features.RowSlice(r.lo, r.hi)
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.rsCounts = make([]int, r.comm.Size())
	r.cnt = make([]float64, 8)
	r.memBase = csrWords(r.atLocal) + matWords(r.h0) + cfgWeightWords(r.cfg)
	r.recordMem(0)
}

func (r *oneDRank) rank() int { return r.comm.Rank() }

func (r *oneDRank) input() *dense.Matrix { return r.h0 }

// forwardAggregate computes (Aᵀ·X)_i = Σ_j Aᵀ_ij X_j — with a broadcast per
// block row of X (Algorithm 1), or, in halo mode, with an indexed
// point-to-point exchange of only the rows this rank's Aᵀ blocks touch
// (§IV-A-1). All paths accumulate blocks in the same order with the same
// nonzeros, so the results are bit-identical.
//
// With overlap on, the halo path issues the fetch asynchronously,
// multiplies interior rows (no remote dependencies) while it is in
// flight, and finishes the frontier rows after the Wait; the broadcast
// path prefetches block j+1's broadcast behind block j's SpMM.
func (r *oneDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	world := r.comm.World()
	rows := r.hi - r.lo
	f := x.Cols
	T := r.ws.Get(rows, f)
	me := r.comm.Rank()
	switch {
	case r.halo && r.overlap:
		req := haloFetchAsync(world, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		// Interior rows touch only the diagonal block; their product is
		// complete before any fetched row arrives. The charge model is
		// unchanged from the synchronous path — the same per-block
		// SpMMTime totals, with the diagonal block's charge apportioned
		// to the two passes by nnz share so only the timeline placement
		// moves, never the modeled compute cost.
		diagTime := r.mach.SpMMTime(int64(r.plan.Blocks[me].NNZ()), rows, f)
		interiorShare := 0.0
		if nnz := r.plan.Blocks[me].NNZ(); nnz > 0 {
			interiorShare = diagTime * float64(r.interiorNNZ) / float64(nnz)
		}
		r.recordMem(matWords(T) + matWords(x))
		sparse.SpMMAddRowList(T, r.plan.Blocks[me], x, r.interior)
		r.comm.ChargeTime(comm.CatSpMM, interiorShare)
		recvd := req.WaitAll()
		for j := 0; j < r.comm.Size(); j++ {
			blk := r.plan.Blocks[j]
			var xj *dense.Matrix
			if j == me {
				xj = x // uncompacted diagonal block, no gather
			} else {
				xj = r.ws.Wrap(len(r.plan.Need[j]), f, recvd[j].Floats)
			}
			r.recordMem(matWords(T) + matWords(xj))
			sparse.SpMMAddRowList(T, blk, xj, r.frontier)
			if j == me {
				r.comm.ChargeTime(comm.CatSpMM, diagTime-interiorShare)
			} else {
				r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, f))
			}
		}
	case r.halo:
		recvd := haloFetch(world, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		for j := 0; j < r.comm.Size(); j++ {
			blk := r.plan.Blocks[j]
			var xj *dense.Matrix
			if j == me {
				xj = x // uncompacted diagonal block, no gather
			} else {
				xj = r.ws.Wrap(len(r.plan.Need[j]), f, recvd[j].Floats)
			}
			r.recordMem(matWords(T) + matWords(xj))
			sparse.SpMMAdd(T, blk, xj)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, f))
		}
	default:
		var req *comm.Request
		if r.overlap {
			req = r.bcastStage(0, x)
		}
		for j := 0; j < r.comm.Size(); j++ {
			var xj *dense.Matrix
			if r.overlap {
				xj = wrapMat(r.ws, req.Wait())
				if j+1 < r.comm.Size() {
					req = r.bcastStage(j+1, x)
				}
			} else {
				var in comm.Payload
				if j == me {
					in = matPayloadInto(x, r.dims)
				}
				xj = wrapMat(r.ws, world.Broadcast(j, in, comm.CatDenseComm))
			}
			r.recordMem(matWords(T) + matWords(xj))
			sparse.SpMMAdd(T, r.atBlk[j], xj)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(r.atBlk[j].NNZ()), rows, f))
		}
	}
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch.
		T = r.ws.Keep(T)
		r.memBase += matWords(T)
	}
	return T
}

// bcastStage issues block j's asynchronous dense broadcast. Only block me
// writes the dims scratch (this rank roots exactly one stage), so a single
// scratch survives two stages being in flight.
func (r *oneDRank) bcastStage(j int, x *dense.Matrix) *comm.Request {
	var in comm.Payload
	if j == r.comm.Rank() {
		in = matPayloadInto(x, r.dims)
	}
	return r.comm.World().IBroadcast(j, in, comm.CatDenseComm)
}

// multiplyWeight computes (X·W)_i = X_i W (W replicated: no communication).
func (r *oneDRank) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
	z := r.ws.GetUninit(x.Rows, w.Cols)
	dense.Mul(z, x, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(x.Rows, w.Rows, w.Cols))
	return z
}

// activationForward: H is row-partitioned, so even row-wise activations
// such as log_softmax need no communication in 1D (§IV-A-2).
func (r *oneDRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	h := r.ws.GetUninit(z.Rows, z.Cols)
	act.Forward(h, z)
	return h, nil
}

func (r *oneDRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := r.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedInto(grad, hOut, r.labels, r.mask, r.lo, r.norm), grad
}

func (r *oneDRank) beforeBackward() {}

// activationBackward: local, like the forward (row-partitioned).
func (r *oneDRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, _ *actCache, l int) *dense.Matrix {
	g := r.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	return g
}

// backwardAggregate is the large 1D outer product (§IV-A-3): each rank forms
// the low-rank n x f product A(:, my rows)·X_i = (Aᵀ_i)ᵀ X_i over the
// precomputed transpose plan, then the partial sums are reduce-scattered
// back to block rows. The outer product materializes an n x f dense
// intermediate per rank — the memory cost §IV-A-3 discusses — at the
// operand's width f = min(f^{l-1}, f^l).
func (r *oneDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	world := r.comm.World()
	rows := r.hi - r.lo
	f := x.Cols
	full := r.ws.Get(r.n, f)
	r.recordMem(matWords(full))
	r.atPlan.SpMMTAdd(full, x)
	r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(r.atLocal.NNZ()), rows, f))
	for j := range r.rsCounts {
		r.rsCounts[j] = r.blk.Size(j) * f
	}
	return r.ws.Wrap(rows, f,
		world.ReduceScatter(full.Data, r.rsCounts, comm.CatDenseComm))
}

// weightGrad is the small 1D outer product (§IV-A-4): Y^l = (H^{l-1})ᵀ(A G^l),
// reusing the aggregated product — or Y^l = (T^l)ᵀG^l; either way both
// operands are already in block rows — finished with an f×f all-reduce.
func (r *oneDRank) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	fPrev, fl := hPrev.Cols, g.Cols
	yLocal := r.ws.GetUninit(fPrev, fl)
	dense.TMul(yLocal, hPrev, g)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(fPrev, hPrev.Rows, fl))
	return r.ws.Wrap(fPrev, fl,
		r.comm.World().AllReduce(yLocal.Data, comm.CatDenseComm))
}

// inputGrad computes g·(W^l)ᵀ: local (W replicated).
func (r *oneDRank) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
	dH := r.ws.GetUninit(g.Rows, w.Rows)
	dense.MulT(dH, g, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(g.Rows, w.Cols, w.Rows))
	return dH
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace, then (collectively) the fabric's payload
// pool.
func (r *oneDRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.comm.EpochDone()
}

func (r *oneDRank) correctCounts(hOut *dense.Matrix, _ *actCache, masks ...[]bool) []float64 {
	counts := countBuf(r.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, r.labels, r.lo, masks)
	return counts
}

func (r *oneDRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0.
func (r *oneDRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	full := dense.New(r.n, hOut.Cols)
	for j, part := range parts {
		full.SetSubMatrix(r.blk.Lo(j), 0, payloadMat(part))
	}
	return full
}
