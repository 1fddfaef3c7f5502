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

// OneFiveD implements a 1.5D block-row algorithm in the spirit of §IV-B
// (following Koanantakool et al.): P ranks form P/c teams of c layers.
// The vertex dimension is block-partitioned across teams; each team
// replicates its H (and G) row block across its c members — the factor-c
// memory overhead the paper cites as the 1.5D downside — while each member
// stores only the 1/c of its team's Aᵀ columns it needs, so the sparse
// matrix is not replicated.
//
// Each member sums only the SUMMA stages s ≡ k (mod c), cutting dense
// broadcast traffic from ≈ nf to ≈ nf/c per multiply; a small intra-team
// all-reduce (≈ ncf/P words) completes each product. The paper analyzes but
// does not implement 1.5D, arguing d = O(f) makes the memory cost hard to
// justify (§IV-B); this implementation lets the repo quantify that
// trade-off. A must be symmetric, as for the 3D trainer; Train rejects any
// other.
type OneFiveD struct {
	p       int
	c       int
	mach    costmodel.Machine
	cluster *comm.Cluster
	ext     *comm.Comm // external transport endpoint; see SetTransportComm

	// Halo enables the sparsity-aware halo exchange (§IV-A-1) within each
	// layer group: instead of broadcasting whole team blocks per SUMMA
	// stage, each member fetches only the rows its stage blocks reference,
	// with bit-identical results. Set before Train.
	Halo bool
	// Layout optionally replaces the default near-equal Block1D team-row
	// distribution with explicit contiguous boundaries (one block per
	// team, i.e. P/c blocks). Set before Train; nil keeps the default.
	Layout partition.Layout1D

	// Overlap hides stage communication behind local SpMM on the modeled
	// timeline, exactly like OneD.Overlap: broadcast mode prefetches the
	// next stage's block, halo mode multiplies interior rows while the
	// indexed fetch is in flight. Bit-identical to the synchronous paths.
	// Set before Train.
	Overlap bool
}

// NewOneFiveD returns a 1.5D trainer over p ranks with replication factor
// c; p must be divisible by c.
func NewOneFiveD(p, c int, mach costmodel.Machine) *OneFiveD {
	return &OneFiveD{
		p:       p,
		c:       c,
		mach:    mach,
		cluster: comm.NewCluster(p, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}),
	}
}

// Name implements Trainer.
func (t *OneFiveD) Name() string { return "1.5d" }

// Ranks returns the simulated rank count.
func (t *OneFiveD) Ranks() int { return t.p }

// Cluster implements DistTrainer.
func (t *OneFiveD) Cluster() *comm.Cluster { return t.cluster }

// ReplicationFactor returns c.
func (t *OneFiveD) ReplicationFactor() int { return t.c }

// runRanks validates p, builds each rank's layerOps, and executes body on
// every simulated rank. Train drives it with the standard engine run; the
// steady-state allocation tests drive a custom epoch loop through it.
func (t *OneFiveD) runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return err
	}
	if t.c < 1 || t.p%t.c != 0 {
		return fmt.Errorf("core: 1.5d trainer needs c ≥ 1 dividing P, got P=%d c=%d", t.p, t.c)
	}
	if err := requireSymmetric(p.A, t.Name()); err != nil {
		return err
	}
	teams := t.p / t.c
	n := p.A.Rows
	if teams > n {
		return fmt.Errorf("core: 1.5d trainer with %d teams needs at least %d vertices, got %d", teams, teams, n)
	}
	cfg := p.Config.WithDefaults()
	blk, err := layout1DFor(t.Layout, n, teams)
	if err != nil {
		return err
	}
	run := func(c *comm.Comm) error {
		r := &oneFiveDRank{
			comm: c, mach: t.mach, cfg: cfg, halo: t.Halo, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(),
			n: n, c: t.c, teams: teams,
			blk: blk,
		}
		r.setup(p.A, p.Features)
		return body(r, cfg, p)
	}
	if t.ext != nil {
		return run(t.ext)
	}
	return t.cluster.Run(run)
}

// Train implements Trainer.
func (t *OneFiveD) Train(p Problem) (*Result, error) {
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

// oneFiveDRank holds one rank's state during 1.5D training and implements
// layerOps with the 1.5D collective choreography. Per-epoch temporaries
// come from ws (reset at endEpoch, together with the fabric's payload
// pool).
type oneFiveDRank struct {
	comm    *comm.Comm
	mach    costmodel.Machine
	cfg     nn.Config
	labels  []int
	mask    []bool
	norm    int
	n       int
	c       int // replication factor
	teams   int // P/c
	blk     partition.Layout1D
	halo    bool
	overlap bool

	team, layer int
	teamGroup   *comm.Group         // the c replicas of my row block
	layerGroup  *comm.Group         // one member per team, all at my layer index
	atBlk       map[int]*sparse.CSR // s -> Aᵀ(my team rows, team-s cols), s ≡ layer (mod c)
	h0          *dense.Matrix
	memBase     int64

	ws   *dense.Workspace
	dims []int
	cnt  []float64

	// Halo-exchange state (r.halo only), negotiated once over layerGroup
	// (group index = team index): the column support of each stage block,
	// the stage blocks compacted onto it, the rows each layer-group peer
	// requested from this rank, and the peers it receives from.
	haloNeed  [][]int
	haloBlk   map[int]*sparse.CSR
	sendIdx   [][]int
	recvFrom  []bool
	haloParts []comm.Payload

	// Interior/frontier split (r.halo && r.overlap only): interior rows
	// have no nonzeros in any remote stage block and multiply against the
	// own-team block (when this layer owns it) while the fetch is in
	// flight; frontier rows multiply after the Wait. interiorNNZ (the
	// own-team block's nnz on interior rows) apportions that block's
	// unchanged SpMM charge between the two passes.
	interior    []int
	frontier    []int
	interiorNNZ int64
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *oneFiveDRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

func (r *oneFiveDRank) setup(a *sparse.CSR, features *dense.Matrix) {
	rank := r.comm.Rank()
	r.team, r.layer = rank/r.c, rank%r.c
	teamRanks := make([]int, r.c)
	for k := range teamRanks {
		teamRanks[k] = r.team*r.c + k
	}
	r.teamGroup = r.comm.NewGroup(teamRanks)
	layerRanks := make([]int, r.teams)
	for j := range layerRanks {
		layerRanks[j] = j*r.c + r.layer
	}
	r.layerGroup = r.comm.NewGroup(layerRanks)

	// A is symmetric, so Aᵀ row blocks come straight from A. Member k of
	// team j keeps only the column blocks s ≡ k (mod c).
	r.atBlk = make(map[int]*sparse.CSR)
	lo, hi := r.blk.Lo(r.team), r.blk.Hi(r.team)
	for s := r.layer; s < r.teams; s += r.c {
		r.atBlk[s] = a.ExtractBlock(lo, hi, r.blk.Lo(s), r.blk.Hi(s))
	}
	if r.halo {
		// Column support and compaction per remote stage block; the own
		// team's block multiplies the local x directly, and non-stage
		// teams contribute empty need lists, so nothing is fetched from
		// either. The compacted copy replaces the uncompacted one, which
		// the halo path never multiplies.
		r.haloNeed = make([][]int, r.teams)
		r.haloBlk = make(map[int]*sparse.CSR)
		for s, blk := range r.atBlk {
			if s != r.team {
				r.haloNeed[s], r.haloBlk[s] = sparse.CompactCols(blk)
				delete(r.atBlk, s)
			}
		}
		r.sendIdx, r.recvFrom = exchangeHaloPlan(r.layerGroup, r.haloNeed)
		r.haloParts = make([]comm.Payload, r.layerGroup.Size())
		if r.overlap {
			remote := make([]*sparse.CSR, 0, len(r.haloBlk))
			for _, blk := range r.haloBlk {
				remote = append(remote, blk)
			}
			r.interior, r.frontier = haloRowSplit(hi-lo, remote)
			if own := r.atBlk[r.team]; own != nil {
				r.interiorNNZ = sparse.RowListNNZ(own, r.interior)
			}
		}
	}
	r.h0 = features.RowSlice(lo, hi)
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.cnt = make([]float64, 8)
	// h0 is the c-fold replicated dense block — the §IV-B memory overhead.
	r.memBase = matWords(r.h0) + cfgWeightWords(r.cfg)
	for _, blk := range r.atBlk {
		r.memBase += csrWords(blk)
	}
	for _, blk := range r.haloBlk {
		r.memBase += csrWords(blk)
	}
	r.recordMem(0)
}

// blockMul computes my team's row block of Aᵀ·X, where x is my team's
// (replicated) row block of X: each member sums its s ≡ layer stages, then
// an intra-team all-reduce completes and re-replicates the product. Stage
// blocks move by layer-group broadcast, or, in halo mode, by an indexed
// exchange of only the rows each stage block references — same stage
// order and nonzeros, so all paths are bit-identical.
//
// With overlap on, broadcast mode keeps stage s+c's broadcast in flight
// behind stage s's SpMM, and halo mode multiplies interior rows against
// the own-team block (when this layer owns it) while the fetch flies,
// finishing frontier rows after the Wait.
func (r *oneFiveDRank) blockMul(x *dense.Matrix) *dense.Matrix {
	rows := r.blk.Size(r.team)
	partial := r.ws.Get(rows, x.Cols)
	switch {
	case r.halo && r.overlap:
		req := haloFetchAsync(r.layerGroup, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		// As in the 1D halo overlap, the charge model is the synchronous
		// one: per-stage SpMMTime totals unchanged, with the own-team
		// block's charge apportioned to the two passes by nnz share.
		var ownTime, interiorShare float64
		if own := r.atBlk[r.team]; own != nil {
			ownTime = r.mach.SpMMTime(int64(own.NNZ()), rows, x.Cols)
			if nnz := own.NNZ(); nnz > 0 {
				interiorShare = ownTime * float64(r.interiorNNZ) / float64(nnz)
			}
			r.recordMem(matWords(partial) + matWords(x))
			sparse.SpMMAddRowList(partial, own, x, r.interior)
			r.comm.ChargeTime(comm.CatSpMM, interiorShare)
		}
		recvd := req.WaitAll()
		for s := r.layer; s < r.teams; s += r.c {
			var blk, xs = r.atBlk[s], (*dense.Matrix)(nil)
			if s == r.team {
				xs = x // uncompacted own block, no gather
			} else {
				blk = r.haloBlk[s]
				xs = r.ws.Wrap(len(r.haloNeed[s]), x.Cols, recvd[s].Floats)
			}
			r.recordMem(matWords(partial) + matWords(xs))
			sparse.SpMMAddRowList(partial, blk, xs, r.frontier)
			if s == r.team {
				r.comm.ChargeTime(comm.CatSpMM, ownTime-interiorShare)
			} else {
				r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, x.Cols))
			}
		}
	case r.halo:
		recvd := haloFetch(r.layerGroup, x, r.sendIdx, r.recvFrom, r.ws, r.haloParts)
		for s := r.layer; s < r.teams; s += r.c {
			var blk, xs = r.atBlk[s], (*dense.Matrix)(nil)
			if s == r.team {
				xs = x // uncompacted own block, no gather
			} else {
				blk = r.haloBlk[s]
				xs = r.ws.Wrap(len(r.haloNeed[s]), x.Cols, recvd[s].Floats)
			}
			r.recordMem(matWords(partial) + matWords(xs))
			sparse.SpMMAdd(partial, blk, xs)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, x.Cols))
		}
	default:
		var req *comm.Request
		// Layers beyond the team count own no stages (possible whenever
		// c² > P): the stage loop below never runs, so there is nothing
		// to prefetch — mirroring the synchronous path, which simply
		// skips the loop.
		if r.overlap && r.layer < r.teams {
			req = r.bcastStage(r.layer, x)
		}
		for s := r.layer; s < r.teams; s += r.c {
			var xs *dense.Matrix
			if r.overlap {
				xs = wrapMat(r.ws, req.Wait())
				if s+r.c < r.teams {
					req = r.bcastStage(s+r.c, x)
				}
			} else if s == r.team {
				xs = wrapMat(r.ws, r.layerGroup.Broadcast(s, matPayloadInto(x, r.dims), comm.CatDenseComm))
			} else {
				// Broadcast within my layer: root is the member of team s.
				xs = wrapMat(r.ws, r.layerGroup.Broadcast(s, comm.Payload{}, comm.CatDenseComm))
			}
			r.recordMem(matWords(partial) + matWords(xs))
			sparse.SpMMAdd(partial, r.atBlk[s], xs)
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(r.atBlk[s].NNZ()), rows, x.Cols))
		}
	}
	if r.c == 1 {
		return partial
	}
	return r.ws.Wrap(rows, x.Cols,
		r.teamGroup.AllReduce(partial.Data, comm.CatDenseComm))
}

// bcastStage issues stage s's asynchronous dense broadcast within the
// layer group (root: the member of team s). Only stage team writes the
// dims scratch, so one scratch survives two in-flight stages.
func (r *oneFiveDRank) bcastStage(s int, x *dense.Matrix) *comm.Request {
	var in comm.Payload
	if s == r.team {
		in = matPayloadInto(x, r.dims)
	}
	return r.layerGroup.IBroadcast(s, in, comm.CatDenseComm)
}

func (r *oneFiveDRank) rank() int { return r.comm.Rank() }

func (r *oneFiveDRank) input() *dense.Matrix { return r.h0 }

func (r *oneFiveDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := r.blockMul(x)
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch. With
		// c > 1 it arrives in a fabric payload, so Keep copies it out.
		t = r.ws.Keep(t)
		r.memBase += matWords(t)
	}
	return t
}

func (r *oneFiveDRank) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
	z := r.ws.GetUninit(x.Rows, w.Cols)
	dense.Mul(z, x, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(x.Rows, w.Rows, w.Cols))
	return z
}

// activationForward: row-partitioned, so local even for row-wise
// activations.
func (r *oneFiveDRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	h := r.ws.GetUninit(z.Rows, z.Cols)
	act.Forward(h, z)
	return h, nil
}

// lossGrad: every team member computes the (replicated) gradient block, but
// only layer-0 members contribute to the loss sum so each replicated block
// is counted once.
func (r *oneFiveDRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	dH := r.ws.Get(hOut.Rows, hOut.Cols)
	loss := nn.NLLLossMaskedInto(dH, hOut, r.labels, r.mask, r.blk.Lo(r.team), r.norm)
	if r.layer != 0 {
		loss = 0
	}
	return loss, dH
}

func (r *oneFiveDRank) beforeBackward() {}

func (r *oneFiveDRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, _ *actCache, l int) *dense.Matrix {
	g := r.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	return g
}

// backwardAggregate: A·X = Aᵀ·X by symmetry — same pattern as forward, no
// outer product and no transpose needed.
func (r *oneFiveDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.blockMul(x)
}

// weightGrad: Y^l = Σ_teams (H_j)ᵀ(AG_j), or Σ_teams (T^l_j)ᵀG^l_j — all
// four team-replicated: layer-0 members contribute their team's term once;
// the world all-reduce replicates Y everywhere.
func (r *oneFiveDRank) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	fPrev, fl := hPrev.Cols, g.Cols
	partial := r.ws.Get(fPrev, fl)
	if r.layer == 0 {
		dense.TMul(partial, hPrev, g)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(fPrev, hPrev.Rows, fl))
	}
	return r.ws.Wrap(fPrev, fl,
		r.comm.World().AllReduce(partial.Data, comm.CatDenseComm))
}

func (r *oneFiveDRank) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
	dH := r.ws.GetUninit(g.Rows, w.Rows)
	dense.MulT(dH, g, w)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(g.Rows, w.Cols, w.Rows))
	return dH
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace, then (collectively) the fabric's payload
// pool.
func (r *oneFiveDRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.comm.EpochDone()
}

// correctCounts: layer-0 members count their team's row block once.
func (r *oneFiveDRank) correctCounts(hOut *dense.Matrix, _ *actCache, masks ...[]bool) []float64 {
	counts := countBuf(r.cnt, len(masks))
	if r.layer != 0 {
		return counts
	}
	argmaxCorrectInto(counts, hOut, r.labels, r.blk.Lo(r.team), masks)
	return counts
}

func (r *oneFiveDRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0, keeping layer 0's
// copy of each replicated block.
func (r *oneFiveDRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	full := dense.New(r.n, hOut.Cols)
	for rank, part := range parts {
		if rank%r.c != 0 {
			continue // replicas carry identical blocks; keep layer 0's
		}
		full.SetSubMatrix(r.blk.Lo(rank/r.c), 0, payloadMat(part))
	}
	return full
}
