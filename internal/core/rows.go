package core

import (
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// RowOptions is what the block-row trainers (1D, 1.5D) add to the shared
// shell. Set before Train.
type RowOptions struct {
	// Halo enables the sparsity-aware halo exchange (§IV-A-1): instead of
	// broadcasting whole dense blocks (≈ n·f words per product), each rank
	// fetches point-to-point only the rows its Aᵀ stage blocks reference
	// (edgecut·f words), with bit-identical results.
	Halo bool
	// Layout optionally replaces the default near-equal Block1D row
	// distribution with explicit contiguous block boundaries — typically
	// partition.Assignment.ContigLayout output after PartitionProblem
	// relabeling. Must cover the problem's vertices with exactly one block
	// per rank (1D) or per team (1.5D); nil keeps the default.
	Layout partition.Layout1D
}

// RowTrainer is what the trainers over block rows — OneD and OneFiveD, the
// only ones a partitioner or the halo exchange applies to — have beyond
// the others.
type RowTrainer interface {
	// Rows returns the trainer's row options, for reading or setting.
	Rows() *RowOptions
	// Blocks returns the row-block count: ranks for 1D, teams for 1.5D.
	Blocks() int
}

// Rows implements RowTrainer.
func (o *RowOptions) Rows() *RowOptions { return o }

// rowRank is what the two block-row decompositions share (1D of §IV-A, 1.5D
// of §IV-B): H and G in block rows with W replicated, so every dense product
// and activation is local, and one forward product Σ_s Aᵀ_{own,s}·X_s over a
// stage list — every block over the world group for 1D, the stages
// s ≡ layer (mod c) over the layer group for 1.5D, which at c = 1 is the
// same list over the same group. oneDRank and oneFiveDRank embed it and add
// what differs: how the stage blocks are cut, and the backward product.
//
// Per-epoch temporaries come from ws (reset at endEpoch, together with the
// fabric's payload pool).
type rowRank struct {
	comm    *comm.Comm
	mach    costmodel.Machine
	cfg     nn.Config
	blk     partition.Layout1D // row blocks: one per rank (1D) or per team (1.5D)
	c       int                // replicas of each row block: 1 for 1D
	halo    bool
	overlap bool
	labels  []int
	mask    []bool
	norm    int
	n       int

	lo, hi  int // this rank's rows: block own of blk
	h0      *dense.Matrix
	memBase int64

	ws   *dense.Workspace
	dims []int     // scratch shape header for outbound payloads
	cnt  []float64 // correctCounts buffer

	// The forward product's stages, built once in setup. group carries the
	// exchanges and its member s holds block s of X; own is this rank's index
	// in it. stages lists, ascending, the blocks this rank multiplies, and
	// blocks[s] = Aᵀ(my rows, rows of block s) for each of them (nil
	// elsewhere) — slices indexed by group member, so an epoch looks nothing
	// up in a map.
	group  *comm.Group
	own    int
	stages []int
	blocks []*sparse.CSR

	// Halo-exchange state (halo only), negotiated once over group: need[s]
	// is the column support of stage block s — the rows fetched from member
	// s — and blocks[s] is compacted onto it, except the own block, which
	// multiplies the local x directly and fetches nothing. sendIdx lists the
	// rows each peer requested from this rank, recvFrom the peers it
	// receives from.
	need      [][]int
	sendIdx   [][]int
	recvFrom  []bool
	haloParts []comm.Payload

	// Interior/frontier split (halo && overlap only): interior rows have no
	// nonzeros in any remote stage block and multiply against the own block
	// (when it is one of this rank's stages) while the halo fetch is in
	// flight; frontier rows multiply after its Wait. interiorNNZ (the own
	// block's nnz on interior rows) apportions that block's unchanged SpMM
	// charge between the two passes.
	interior    []int
	frontier    []int
	interiorNNZ int64
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *rowRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

// finishSetup completes a rank whose group, own, lo/hi, stages, blocks (and
// need, in halo mode) the decomposition has filled in: it negotiates the
// halo plan, splits interior from frontier rows, and takes the input block
// and the per-run buffers. sparseWords is the resident size of the rank's
// share of Aᵀ.
func (r *rowRank) finishSetup(features *dense.Matrix, sparseWords int64) {
	if r.halo {
		r.sendIdx, r.recvFrom = exchangeHaloPlan(r.group, r.need)
		r.haloParts = make([]comm.Payload, r.group.Size())
		if r.overlap {
			remote := append([]*sparse.CSR(nil), r.blocks...)
			remote[r.own] = nil
			r.interior, r.frontier = haloRowSplit(r.hi-r.lo, remote)
			if own := r.blocks[r.own]; own != nil {
				r.interiorNNZ = sparse.RowListNNZ(own, r.interior)
			}
		}
	}
	r.h0 = features.RowSlice(r.lo, r.hi)
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.cnt = make([]float64, 8)
	r.memBase = sparseWords + matWords(r.h0) + cfgWeightWords(r.cfg)
	r.recordMem(0)
}

// stageProduct computes Σ_{s ∈ stages} Aᵀ_{own,s}·X_s, where x is this
// rank's block of X: with a broadcast per stage (Algorithm 1), or, in halo
// mode, with one indexed point-to-point exchange of only the rows the stage
// blocks touch (§IV-A-1). All paths accumulate the stages in the same order
// with the same nonzeros, so the results are bit-identical.
//
// With overlap on, the halo path issues the fetch asynchronously,
// multiplies interior rows (no remote dependencies) against the own block
// while it is in flight, and finishes the frontier rows after the Wait; the
// broadcast path keeps the next stage's broadcast in flight behind this
// stage's SpMM.
func (r *rowRank) stageProduct(x *dense.Matrix) *dense.Matrix {
	rows, f := r.hi-r.lo, x.Cols
	T := r.ws.Get(rows, f)
	switch {
	case r.halo && r.overlap:
		req := haloFetchAsync(r.group, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		// Interior rows touch only the own block; their product is complete
		// before any fetched row arrives. The charge model is unchanged from
		// the synchronous path — the same per-stage SpMMTime totals, with the
		// own block's charge apportioned to the two passes by nnz share so
		// only the timeline placement moves, never the modeled compute cost.
		var ownTime, interiorShare float64
		if own := r.blocks[r.own]; own != nil {
			ownTime = r.mach.SpMMTime(int64(own.NNZ()), rows, f)
			if nnz := own.NNZ(); nnz > 0 {
				interiorShare = ownTime * float64(r.interiorNNZ) / float64(nnz)
			}
			r.recordMem(matWords(T) + matWords(x))
			sparse.SpMMAddRowList(T, own, x, r.interior)
			r.comm.ChargeTime(comm.CatSpMM, interiorShare)
		}
		recvd := req.WaitAll()
		for _, s := range r.stages {
			blk, xs := r.blocks[s], r.fetched(s, x, recvd)
			r.recordMem(matWords(T) + matWords(xs))
			sparse.SpMMAddRowList(T, blk, xs, r.frontier)
			if s == r.own {
				r.comm.ChargeTime(comm.CatSpMM, ownTime-interiorShare)
			} else {
				r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, f))
			}
		}
	case r.halo:
		recvd := haloFetch(r.group, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		for _, s := range r.stages {
			blk, xs := r.blocks[s], r.fetched(s, x, recvd)
			r.recordMem(matWords(T) + matWords(xs))
			sparse.SpMMAdd(T, blk, xs)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, f))
		}
	default:
		// A rank may own no stages (1.5D layers beyond the team count,
		// possible whenever c² > P): then there is nothing to prefetch and
		// the loop never runs.
		var req *comm.Request
		if r.overlap && len(r.stages) > 0 {
			req = r.bcastStage(r.stages[0], x)
		}
		for i, s := range r.stages {
			if !r.overlap {
				req = r.bcastStage(s, x)
			}
			xs := wrapMat(r.ws, req.Wait())
			if r.overlap && i+1 < len(r.stages) {
				req = r.bcastStage(r.stages[i+1], x)
			}
			r.recordMem(matWords(T) + matWords(xs))
			sparse.SpMMAdd(T, r.blocks[s], xs)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(r.blocks[s].NNZ()), rows, f))
		}
	}
	return T
}

// fetched returns block s of X after a halo exchange: x itself for the own
// block (uncompacted, so no gather), the rows member s sent otherwise.
func (r *rowRank) fetched(s int, x *dense.Matrix, recvd []comm.Payload) *dense.Matrix {
	if s == r.own {
		return x
	}
	return r.ws.Wrap(len(r.need[s]), x.Cols, recvd[s].Floats)
}

// bcastStage issues stage s's dense broadcast (root: member s of group).
// Only stage own writes the dims scratch — this rank roots exactly one
// stage — so a single scratch survives two stages being in flight.
func (r *rowRank) bcastStage(s int, x *dense.Matrix) *comm.Request {
	var in comm.Payload
	if s == r.own {
		in = matPayloadInto(x, r.dims)
	}
	return r.group.IBroadcast(s, in, comm.CatDenseComm)
}

// keepInput takes T¹ out of the epoch scope: it outlives endEpoch, since
// the engine reuses it every epoch. A product that arrived in a fabric
// payload (1.5D's team all-reduce) is copied out by Keep; a workspace
// buffer is handed over in place.
func (r *rowRank) keepInput(t *dense.Matrix, l int) *dense.Matrix {
	if l == 1 {
		t = r.ws.Keep(t)
		r.memBase += matWords(t)
	}
	return t
}

func (r *rowRank) rank() int { return r.comm.Rank() }

// primary reports whether this rank is the replica of its row block that
// contributes the block to world-wide sums — every rank in 1D, the layer-0
// member of each team in 1.5D — so each replicated block is counted once.
func (r *rowRank) primary() bool { return r.comm.Rank()%r.c == 0 }

func (r *rowRank) input() *dense.Matrix { return r.h0 }

// multiplyWeight computes (X·W)_i = X_i W (W replicated: no communication).
func (r *rowRank) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
	z := r.ws.GetUninit(x.Rows, w.Cols)
	dense.Mul(z, x, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(x.Rows, w.Rows, w.Cols))
	return z
}

// activationForward: H is row-partitioned, so even row-wise activations
// such as log_softmax need no communication (§IV-A-2).
func (r *rowRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	h := r.ws.GetUninit(z.Rows, z.Cols)
	act.Forward(h, z)
	return h, nil
}

// lossGrad: every replica computes the gradient block, the primary alone
// contributes the loss.
func (r *rowRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := r.ws.Get(hOut.Rows, hOut.Cols)
	loss := nn.NLLLossMaskedInto(grad, hOut, r.labels, r.mask, r.lo, r.norm)
	if !r.primary() {
		loss = 0
	}
	return loss, grad
}

func (r *rowRank) beforeBackward() {}

// activationBackward: local, like the forward (row-partitioned).
func (r *rowRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, _ *actCache, l int) *dense.Matrix {
	g := r.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	return g
}

// weightGrad is the small outer product (§IV-A-4): Y^l = Σ_blocks
// (H^{l-1}_j)ᵀ(A G^l)_j, reusing the aggregated product — or Σ_blocks
// (T^l_j)ᵀG^l_j; either way both operands are already in block rows. The
// primary of each block contributes its term once and an f×f world
// all-reduce replicates Y everywhere.
func (r *rowRank) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	fPrev, fl := hPrev.Cols, g.Cols
	partial := r.ws.GetUninit(fPrev, fl)
	if r.primary() {
		dense.TMul(partial, hPrev, g)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(fPrev, hPrev.Rows, fl))
	} else {
		partial.Zero()
	}
	return r.ws.Wrap(fPrev, fl,
		r.comm.World().AllReduce(partial.Data, comm.CatDenseComm))
}

// inputGrad computes g·(W^l)ᵀ: local (W replicated).
func (r *rowRank) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
	dH := r.ws.GetUninit(g.Rows, w.Rows)
	dense.MulT(dH, g, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(g.Rows, w.Cols, w.Rows))
	return dH
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace, then (collectively) the fabric's payload
// pool.
func (r *rowRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.comm.EpochDone()
}

// correctCounts: the primary of each row block counts it.
func (r *rowRank) correctCounts(hOut *dense.Matrix, _ *actCache, masks ...[]bool) []float64 {
	counts := countBuf(r.cnt, len(masks))
	if r.primary() {
		argmaxCorrectInto(counts, hOut, r.labels, r.lo, masks)
	}
	return counts
}

func (r *rowRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0 from the primaries'
// blocks (replicas carry identical ones).
func (r *rowRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	full := dense.New(r.n, hOut.Cols)
	for rank, part := range parts {
		if rank%r.c == 0 {
			full.SetSubMatrix(r.blk.Lo(rank/r.c), 0, payloadMat(part))
		}
	}
	return full
}
