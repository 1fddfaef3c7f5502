package core

import (
	"fmt"
	"slices"

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
	// fetches point-to-point only the rows its stage blocks (of Aᵀ forward,
	// of A backward) reference (edgecut·f words), with bit-identical results.
	Halo bool
	// Layout optionally replaces the default near-equal Block1D row
	// distribution with explicit contiguous block boundaries — typically
	// partition.Assignment.ContigLayout output after PartitionProblem
	// relabeling. Must cover the problem's vertices with exactly one block
	// per rank (1D) or per team (1.5D); nil keeps the default.
	Layout partition.Layout1D
}

// RowTrainer is what the trainer over block rows — NewOneD's and
// NewOneFiveD's, the only one a partitioner or the halo exchange applies to
// — has beyond the others.
type RowTrainer interface {
	// Rows returns the trainer's row options, for reading or setting.
	Rows() *RowOptions
	// Blocks returns the row-block count: ranks for 1D, teams for 1.5D.
	Blocks() int
}

// Rows implements RowTrainer.
func (o *RowOptions) Rows() *RowOptions { return o }

// rowTrainer is the block-row trainer: the paper's 1D algorithm (§IV-A) and
// the 1.5D algorithm of §IV-B (following Koanantakool et al.) are one
// decomposition with a replication factor c.
//
// P ranks form P/c teams of c layers. The vertex dimension is
// block-partitioned across teams: Aᵀ and A in block rows, H and G in block
// rows, W fully replicated. Each team replicates its H (and G) row block
// across its c members — the factor-c memory overhead the paper cites as the
// 1.5D downside — while each member stores only the 1/c of its team's sparse
// column blocks it multiplies, so the sparse matrix is not replicated.
//
// Both aggregations are the same block-row SpMM (Algorithm 1; §IV-A-6's
// symmetric form, Eq. 2): member k of a team sums the stages s ≡ k (mod c),
// moving ≈ nf/c words per product — or, in halo mode, only the rows its
// blocks reference (§IV-A-1) — and a small intra-team all-reduce (≈ ncf/P
// words) completes and re-replicates the sum. Forward multiplies blocks of
// Aᵀ, backward blocks of A: the same blocks when A = Aᵀ, a second set cut
// from A when the graph is directed. The weight gradient is the small outer
// product Y = Hᵀ(AG) with an f×f all-reduce.
//
// 1D is c = 1: every rank is its own team, every block a stage, and there is
// no team all-reduce. The paper analyzes but does not implement 1.5D,
// arguing d = O(f) makes the memory cost hard to justify (§IV-B); this
// implementation lets the repo quantify that trade-off.
type rowTrainer struct {
	dist
	RowOptions
	c int
}

// NewOneD returns a 1D trainer (§IV-A) over p simulated ranks: the block-row
// trainer with one replica of each block.
func NewOneD(p int, mach costmodel.Machine) *rowTrainer {
	return newRowTrainer("1d", p, 1, mach)
}

// NewOneFiveD returns a 1.5D trainer (§IV-B) over p ranks with replication
// factor c; p must be divisible by c.
func NewOneFiveD(p, c int, mach costmodel.Machine) *rowTrainer {
	return newRowTrainer("1.5d", p, c, mach)
}

func newRowTrainer(name string, p, c int, mach costmodel.Machine) *rowTrainer {
	t := &rowTrainer{dist: newDist(name, p, mach), c: c}
	t.decompose = t.newRanks
	return t
}

// ReplicationFactor returns c.
func (t *rowTrainer) ReplicationFactor() int { return t.c }

// Blocks implements RowTrainer: one row block per team.
func (t *rowTrainer) Blocks() int { return t.p / t.c }

// newRanks is the block-row decomposition (dist.decompose).
func (t *rowTrainer) newRanks(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error) {
	if t.c < 1 || t.p%t.c != 0 {
		return nil, fmt.Errorf("core: %s trainer needs c ≥ 1 dividing P, got P=%d c=%d", t.name, t.p, t.c)
	}
	teams, n := t.Blocks(), p.A.Rows
	if teams > n {
		return nil, fmt.Errorf("core: %s trainer with %d row blocks needs at least %d vertices, got %d", t.name, teams, teams, n)
	}
	blk, err := layout1DFor(t.Layout, n, teams)
	if err != nil {
		return nil, err
	}
	// Forward multiplies blocks of Aᵀ, backward blocks of A. On an undirected
	// graph they are the same blocks, read straight out of A; only a
	// directed one pays for the transpose and a second block set.
	at := p.A
	if !symmetric(p.A) {
		at = p.A.Transpose() // read-only global view; ranks extract blocks
	}
	return func(c *comm.Comm) layerOps {
		r := &rowRank{
			comm: c, mach: t.mach, cfg: cfg, blk: blk, c: t.c, halo: t.Halo,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
		}
		r.setup(at, p.A, p.Features, p.order)
		return r
	}, nil
}

// rowRank holds one rank's state during block-row training: H and G in
// block rows with W replicated, so every dense product and activation is
// local, and one product Σ_s M_{own,s}·X_s over a stage list that serves
// both aggregations — M = Aᵀ forward, M = A backward — with its exchange
// in flight behind local SpMM (stageProduct).
//
// Per-epoch temporaries come from ws and the fabric: each product hands
// back its own scratch and every payload it received as soon as it is
// consumed, the engine every result after its last reader (release), and
// endEpoch the rest, together with the fabric's payload pool.
type rowRank struct {
	comm   *comm.Comm
	mach   costmodel.Machine
	cfg    nn.Config
	blk    partition.Layout1D // row blocks, one per team
	c      int                // replicas of each row block: 1 for 1D
	halo   bool
	labels []int
	mask   []bool
	norm   int
	n      int

	lo, hi int // this rank's rows: block own of blk
	// h0 is what this rank reads its block of H⁰ from: the block itself (a
	// row view of the features) or, for a relabeled problem, the whole
	// features matrix, of which h0rows lists the block's rows in order.
	h0      *dense.Matrix
	h0rows  []int
	memBase int64

	ws   *dense.Workspace
	dims []int     // scratch shape header for outbound payloads
	cnt  []float64 // correctCounts buffer

	// The product's stages, built once in setup. group — one member per
	// team, all at this rank's layer index; the world at c = 1 — carries the
	// exchanges, and its member s holds block s of X; own is this rank's
	// index in it, its team. stages lists, ascending, the blocks this rank
	// multiplies: s ≡ layer (mod c). teamGroup is the c replicas of the own
	// block, whose all-reduce completes each product.
	group     *comm.Group
	teamGroup *comm.Group
	own       int
	stages    []int

	// fwd holds the stage blocks of Aᵀ, bwd those of A — the same plan when
	// A = Aᵀ. haloParts and haloSent are the outbound scratch of either's
	// exchange: the payloads and the gathered rows they carry.
	fwd, bwd  *stagePlan
	haloParts []comm.Payload
	haloSent  []*dense.Matrix
}

// stagePlan is one direction of the stage product: the blocks of M = Aᵀ or
// M = A this rank multiplies and, in halo mode, the exchange negotiated for
// them — all slices indexed by group member, so an epoch looks nothing up
// in a map.
type stagePlan struct {
	// blocks[s] = M(my rows, rows of block s) for each stage s, nil
	// elsewhere.
	blocks []*sparse.CSR

	// Halo-exchange state (halo only), negotiated once over group: need[s]
	// is the column support of stage block s — the rows fetched from member
	// s — and blocks[s] is compacted onto it, except the own block, which
	// multiplies the local x directly and fetches nothing; non-stage members
	// have empty need lists. sendIdx lists the rows each peer requested from
	// this rank, recvFrom the peers it receives from.
	need     [][]int
	sendIdx  [][]int
	recvFrom []bool

	// Interior/frontier split (halo only): interior rows have no
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

// setup builds the groups and the two stage plans and takes the input block
// and the per-run buffers. The H⁰ block is c-fold replicated — the §IV-B
// memory overhead — while the sparse share is only the stage blocks: nnz/P
// words per direction, once when the plans coincide (at is a itself:
// A = Aᵀ). The block is not copied: h0 is a row view of features, or under
// a relabeling order the features themselves with the block's rows listed
// in h0rows; nothing writes it, as on the serial path, and the ranks of
// one process share the storage. The ledger still counts the block, since
// a rank of the modeled machine holds it.
func (r *rowRank) setup(at, a *sparse.CSR, features *dense.Matrix, order []int) {
	rank, teams := r.comm.Rank(), r.blk.Blocks()
	team, layer := rank/r.c, rank%r.c
	teamRanks := make([]int, r.c)
	for k := range teamRanks {
		teamRanks[k] = team*r.c + k
	}
	r.teamGroup = r.comm.NewGroup(teamRanks)
	layerRanks := make([]int, teams)
	for j := range layerRanks {
		layerRanks[j] = j*r.c + layer
	}
	r.group, r.own = r.comm.NewGroup(layerRanks), team
	r.lo, r.hi = r.blk.Lo(team), r.blk.Hi(team)
	for s := layer; s < teams; s += r.c {
		r.stages = append(r.stages, s)
	}
	if r.halo {
		r.haloParts = make([]comm.Payload, teams)
		r.haloSent = make([]*dense.Matrix, teams)
	}

	f0 := features.Cols
	if order == nil {
		r.h0 = dense.FromSlice(r.hi-r.lo, f0, features.Data[r.lo*f0:r.hi*f0:r.hi*f0])
	} else {
		r.h0, r.h0rows = features, order[r.lo:r.hi]
	}
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.cnt = make([]float64, 8)
	r.memBase = int64(r.hi-r.lo)*int64(f0) + cfgWeightWords(r.cfg)
	r.fwd = r.newStagePlan(at)
	r.bwd = r.fwd
	if a != at {
		r.bwd = r.newStagePlan(a)
	}
	r.recordMem(0)
}

// newStagePlan cuts this rank's stage blocks out of m, adds them to the
// resident footprint and, in halo mode, compacts the remote ones onto the
// rows they reference, negotiates the exchange and splits interior from
// frontier rows.
func (r *rowRank) newStagePlan(m *sparse.CSR) *stagePlan {
	q := r.group.Size()
	pl := &stagePlan{blocks: make([]*sparse.CSR, q)}
	if r.halo {
		pl.need = make([][]int, q)
	}
	for _, s := range r.stages {
		pl.blocks[s] = m.ExtractBlock(r.lo, r.hi, r.blk.Lo(s), r.blk.Hi(s))
		if r.halo && s != r.own {
			pl.need[s], pl.blocks[s] = sparse.CompactCols(pl.blocks[s])
		}
		r.memBase += csrWords(pl.blocks[s])
	}
	if r.halo {
		pl.sendIdx, pl.recvFrom = exchangeHaloPlan(r.group, pl.need)
		remote := append([]*sparse.CSR(nil), pl.blocks...)
		remote[r.own] = nil
		pl.interior, pl.frontier = haloRowSplit(r.hi-r.lo, remote)
		if own := pl.blocks[r.own]; own != nil {
			pl.interiorNNZ = sparse.RowListNNZ(own, pl.interior)
		}
	}
	return pl
}

// forwardAggregate computes (Aᵀ·X)_i = Σ_j Aᵀ_ij X_j. The call at l = 1,
// once per run over H⁰, is aggregateInput.
func (r *rowRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	if l == 1 {
		return r.aggregateInput(x)
	}
	return r.blockMul(r.fwd, x)
}

// aggregateInput computes T¹ = Aᵀ·H⁰ in column panels of H⁰ no wider than
// the widest later layer, w = max_{l≥1} f^l — the widest buffer a
// steady-state epoch draws. h0 is input(): the rank's block, or the whole
// features when h0rows lists the block's rows. T¹ itself is the only
// f⁰-wide buffer: every one the product draws — the panel, the stage sum,
// the broadcast payloads or halo gathers, the team all-reduce — is at most
// w wide, and the workspace and the fabric take them back — at their last
// reader, and whatever is left by Reset and Recycle — before the next
// panel starts, so the arenas the epochs reuse never hold an f⁰-wide
// buffer. A ragged last panel draws its workspace buffers at the full
// panels' width (Widen), so it reuses theirs. Recycle is not
// EpochDone: a panel is not an epoch, and epoch-triggered faults count
// training epochs. The panel count is a function of the configured widths,
// so every rank issues the same collectives, and each element of T¹ sums
// the same nonzeros in the same order as one product over all of H⁰: the
// bits do not move. With f⁰ ≤ w there is one panel, and keepInput takes
// the product: over the block itself when it is a view, else over the
// block gathered into a workspace buffer that the epochs then reuse.
func (r *rowRank) aggregateInput(h0 *dense.Matrix) *dense.Matrix {
	w := slices.Max(r.cfg.Widths[1:])
	rows, f0 := r.hi-r.lo, h0.Cols
	if f0 <= w && r.h0rows == nil {
		return r.keepInput(r.blockMul(r.fwd, h0))
	}
	var t1 *dense.Matrix
	if f0 > w {
		t1 = dense.New(rows, f0)
		r.memBase += matWords(t1)
	}
	for c0 := 0; c0 < f0; c0 += w {
		c1 := min(c0+w, f0)
		r.ws.Widen(w)
		panel := r.ws.GetUninit(rows, c1-c0)
		r.inputPanel(panel, h0, c0)
		t := r.blockMul(r.fwd, panel)
		if t1 == nil { // one panel: T¹ is its product
			t1 = r.keepInput(t)
		} else {
			t1.SetSubMatrix(0, c0, t)
			r.release(t)
		}
		r.ws.Widen(0)
		r.ws.Reset()
		// Not redundant with the releases: a released payload goes back to
		// its sender's pool only once the sender has heard from this rank
		// since, so a peer pair with one-way traffic reuses nothing from
		// panel to panel and the fabric would grow by a panel's payloads per
		// panel (TestInputPanelsHoldOnePanel).
		r.comm.Recycle()
	}
	return t1
}

// inputPanel copies columns [c0, c0+dst.Cols) of this rank's block of H⁰
// into dst, reading the block's rows out of h0 (input()).
func (r *rowRank) inputPanel(dst, h0 *dense.Matrix, c0 int) {
	for i := range dst.Rows {
		src := i
		if r.h0rows != nil {
			src = r.h0rows[i]
		}
		copy(dst.Row(i), h0.Row(src)[c0:c0+dst.Cols])
	}
}

// backwardAggregate computes (A·X)_i = Σ_j A_ij X_j: the forward product
// over A's blocks (§IV-A-6), so it fetches, pipelines and charges exactly as
// forward does and holds no more than a block of X at a time.
func (r *rowRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.blockMul(r.bwd, x)
}

// blockMul computes my team's row block of M·X, where x is my team's
// (replicated) row block of X: each member sums its stages, then an
// intra-team all-reduce completes and re-replicates the sum. One replica
// has nothing to all-reduce — the paper's degenerate case, 1D.
func (r *rowRank) blockMul(pl *stagePlan, x *dense.Matrix) *dense.Matrix {
	partial := r.stageProduct(pl, x)
	if r.c == 1 {
		return partial
	}
	sum := r.ws.Wrap(partial.Rows, x.Cols, r.teamGroup.AllReduce(partial.Data, comm.CatDenseComm))
	r.ws.Release(partial)
	return sum
}

// stageProduct computes Σ_{s ∈ stages} M_{own,s}·X_s over pl's blocks of M,
// where x is this rank's block of X: with a broadcast per stage (Algorithm
// 1), or, in halo mode, with one indexed point-to-point exchange of only
// the rows the stage blocks touch (§IV-A-1). Both paths accumulate the
// stages in the same order with the same nonzeros, so the results are
// bit-identical.
//
// Both keep communication in flight behind local compute, as CAGNET's
// asynchronous collectives do (§V–VI): the halo path issues the fetch,
// multiplies interior rows (no remote dependencies) against the own block
// while it is in flight and finishes the frontier rows after the Wait; the
// broadcast path keeps the next stage's broadcast in flight behind this
// stage's SpMM.
func (r *rowRank) stageProduct(pl *stagePlan, x *dense.Matrix) *dense.Matrix {
	rows, f := r.hi-r.lo, x.Cols
	T := r.ws.Get(rows, f)
	if r.halo {
		req := haloFetchAsync(r.group, x, pl.sendIdx, pl.recvFrom, r.ws, r.haloParts, r.haloSent)
		// Interior rows touch only the own block; their product is complete
		// before any fetched row arrives. Each stage is charged its SpMMTime,
		// the own block's apportioned to the two passes by nnz share, so the
		// split moves only the timeline placement, never the modeled compute
		// cost.
		var ownTime, interiorShare float64
		if own := pl.blocks[r.own]; own != nil {
			ownTime = r.mach.SpMMTime(int64(own.NNZ()), rows, f)
			if nnz := own.NNZ(); nnz > 0 {
				interiorShare = ownTime * float64(pl.interiorNNZ) / float64(nnz)
			}
			r.recordMem(matWords(T) + matWords(x))
			sparse.SpMMAddRowList(T, own, x, pl.interior)
			r.comm.ChargeTime(comm.CatSpMM, interiorShare)
		}
		recvd := req.WaitAll()
		for i, sent := range r.haloSent {
			r.ws.Release(sent)
			r.haloSent[i] = nil
		}
		for _, s := range r.stages {
			blk := pl.blocks[s]
			if s == r.own {
				r.recordMem(matWords(T) + matWords(x))
				sparse.SpMMAddRowList(T, blk, x, pl.frontier)
				r.comm.ChargeTime(comm.CatSpMM, ownTime-interiorShare)
				continue
			}
			xs := r.ws.Wrap(len(pl.need[s]), f, recvd[s].Floats)
			r.recordMem(matWords(T) + matWords(xs))
			sparse.SpMMAddRowList(T, blk, xs, pl.frontier)
			r.ws.Release(xs)
			r.comm.Release(recvd[s])
			r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(blk.NNZ()), rows, f))
		}
		return T
	}
	// A rank may own no stages (layers beyond the team count, possible
	// whenever c² > P): then there is nothing to prefetch and the loop never
	// runs.
	var req *comm.Request
	if len(r.stages) > 0 {
		req = r.bcastStage(r.stages[0], x)
	}
	for i, s := range r.stages {
		got := req.Wait()
		xs := wrapMat(r.ws, got)
		if i+1 < len(r.stages) {
			req = r.bcastStage(r.stages[i+1], x)
		}
		r.recordMem(matWords(T) + matWords(xs))
		sparse.SpMMAdd(T, pl.blocks[s], xs)
		r.ws.Release(xs)
		if s != r.own { // the own stage's payload is x itself
			r.comm.Release(got)
		}
		r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(pl.blocks[s].NNZ()), rows, f))
	}
	return T
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

// keepInput takes a one-panel T¹ out of the epoch scope: it outlives
// endEpoch, since the engine reuses it every epoch. A product that arrived
// in a fabric payload (1.5D's team all-reduce) is copied out by Keep, and
// the payload goes back to the fabric; a workspace buffer is handed over
// in place. A T¹ of several panels is storage of its own from the start
// (aggregateInput).
func (r *rowRank) keepInput(t *dense.Matrix) *dense.Matrix {
	kept := r.ws.Keep(t)
	r.comm.Release(comm.Payload{Floats: t.Data})
	r.memBase += matWords(kept)
	return kept
}

func (r *rowRank) rank() int { return r.comm.Rank() }

// primary reports whether this rank is the replica of its row block that
// contributes the block to world-wide sums — every rank in 1D, the layer-0
// member of each team in 1.5D — so each replicated block is counted once.
func (r *rowRank) primary() bool { return r.comm.Rank()%r.c == 0 }

func (r *rowRank) input() *dense.Matrix { return r.h0 }

// multiplyWeight computes (X·W)_i = X_i W (W replicated: no communication)
// in the form the engine asks for.
func (r *rowRank) multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix {
	z := r.ws.GetUninit(x.Rows, w.Cols)
	weightMul(z, x, w, f, false)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(x.Rows, w.Rows, w.Cols))
	return z
}

// activationForward: H is row-partitioned, so even row-wise activations
// such as log_softmax need no communication (§IV-A-2).
func (r *rowRank) activationForward(act dense.Activation, z *dense.Matrix, l int) *dense.Matrix {
	h := r.ws.GetUninit(z.Rows, z.Cols)
	act.Forward(h, z)
	return h
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

// activationBackward: local, like the forward (row-partitioned).
func (r *rowRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, l int) *dense.Matrix {
	g := r.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	return g
}

// weightGrad is the small outer product (§IV-A-4): Y^l = Σ_blocks
// (H^{l-1}_j)ᵀ(A G^l)_j, reusing the aggregated product — or Σ_blocks
// (T^l_j)ᵀG^l_j; either way both operands are already in block rows. The
// primary of each block contributes its term once and an f×f world
// all-reduce replicates Y everywhere.
func (r *rowRank) weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix {
	fPrev, fl := hPrev.Cols, g.Cols
	partial := r.ws.GetUninit(fPrev, fl)
	if r.primary() {
		weightProduct(r.ws, partial, hPrev, g, f, false)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(fPrev, hPrev.Rows, fl))
	} else {
		partial.Zero()
	}
	y := r.ws.Wrap(fPrev, fl, r.comm.World().AllReduce(partial.Data, comm.CatDenseComm))
	r.ws.Release(partial)
	return y
}

// inputGrad computes g·(W^l)ᵀ: local (W replicated), masked in the GEMM's
// epilogue when asked — H^{l-1} is in the same block rows.
func (r *rowRank) inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix {
	dH := r.ws.GetUninit(g.Rows, w.Rows)
	if mask != nil {
		dense.MulTReLUMask(dH, g, w, mask)
	} else {
		dense.MulT(dH, g, w)
	}
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(g.Rows, w.Cols, w.Rows))
	return dH
}

// release hands m back to the workspace and, when it wraps a fabric
// payload (1.5D's team all-reduce result), the payload to the fabric.
func (r *rowRank) release(m *dense.Matrix) {
	if m != nil {
		r.comm.Release(comm.Payload{Floats: m.Data})
	}
	r.ws.Release(m)
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace, then (collectively) the fabric's payload
// pool. A rank whose epoch left its plan (comm.Ledger.Drift) fails the run.
func (r *rowRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.comm.EpochDone()
	if err := r.comm.Ledger().Drift(); err != nil {
		panic(err)
	}
}

// correctCounts: the primary of each row block counts it.
func (r *rowRank) correctCounts(hOut *dense.Matrix, masks ...[]bool) []float64 {
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
