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

// TwoD implements the paper's block 2D algorithm (§IV-C, Algorithm 2): all
// of A, H, and G live on a √P x √P process grid, W is replicated.
//
// Each forward layer runs a SUMMA SpMM (row broadcasts of Aᵀ blocks, column
// broadcasts of dense blocks) and a "partial SUMMA" against the replicated
// W (row broadcasts of the dense operand's panels), in the order the engine
// picks per layer. Row-wise activations (log_softmax) add an all-gather
// along process rows. Backward runs the same pattern with A — obtained by a
// pairwise transpose exchange across the grid diagonal, the "trpose"
// category of Figure 3 — plus the dense SUMMA for Y with its f×f
// all-gather.
type TwoD struct {
	p       int
	mach    costmodel.Machine
	cluster *comm.Cluster
	ext     *comm.Comm // external transport endpoint; see SetTransportComm

	// Overlap pipelines the SUMMA loops: stage k+1's panel broadcasts are
	// issued asynchronously (comm.IBroadcast) while stage k's local
	// SpMM/GEMM runs, so each stage costs max(comm, comp) on the modeled
	// timeline instead of their sum. Stages still accumulate in the same
	// order with the same panels, so results are bit-identical to the
	// synchronous path. Set before Train.
	Overlap bool
}

// NewTwoD returns a 2D SUMMA trainer over p simulated ranks; p must be a
// perfect square.
func NewTwoD(p int, mach costmodel.Machine) *TwoD {
	return &TwoD{
		p:       p,
		mach:    mach,
		cluster: comm.NewCluster(p, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}),
	}
}

// Name implements Trainer.
func (t *TwoD) Name() string { return "2d" }

// Cluster implements DistTrainer.
func (t *TwoD) Cluster() *comm.Cluster { return t.cluster }

// runRanks validates p, builds each rank's layerOps, and executes body on
// every simulated rank. Train drives it with the standard engine run; the
// steady-state allocation tests drive a custom epoch loop through it.
func (t *TwoD) runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return err
	}
	if !partition.IsPerfectSquare(t.p) {
		return fmt.Errorf("core: 2d trainer needs a perfect-square rank count, got %d", t.p)
	}
	cfg := p.Config.WithDefaults()
	n := p.A.Rows
	grid := partition.NewSquareGrid(t.p)
	if grid.Pr > n {
		return fmt.Errorf("core: 2d grid dimension %d exceeds vertex count %d", grid.Pr, n)
	}
	at := p.A.Transpose()
	run := func(c *comm.Comm) error {
		r := &twoDRank{
			comm: c, mach: t.mach, cfg: cfg, grid: grid, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
			vBlk: partition.NewBlock1D(n, grid.Pr),
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
func (t *TwoD) Train(p Problem) (*Result, error) {
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

// twoDRank holds one rank's state during 2D training and implements
// layerOps with the SUMMA collective choreography. Per-epoch temporaries
// come from ws and the csrs header arena, both reset at endEpoch together
// with the fabric's payload pool.
type twoDRank struct {
	comm    *comm.Comm
	mach    costmodel.Machine
	cfg     nn.Config
	grid    partition.Grid2D
	overlap bool
	labels  []int
	mask    []bool
	norm    int
	n       int
	vBlk    partition.Block1D // vertex dimension split √P ways

	pi, pj    int // grid coordinates
	rowGroup  *comm.Group
	colGroup  *comm.Group
	atBlk     *sparse.CSR  // Aᵀ(rows of pi, cols of pj)
	atPay     comm.Payload // atBlk pre-serialized for the SUMMA broadcasts
	localT    *sparse.CSR  // (Aᵀ block)ᵀ, the diagonal exchange contribution
	localTPay comm.Payload
	aBlk      *sparse.CSR  // A(rows of pi, cols of pj), built by transpose exchange
	aPay      comm.Payload // aBlk pre-serialized
	h0        *dense.Matrix
	memBase   int64

	ws       *dense.Workspace
	csrs     csrArena
	dims     []int
	cnt      []float64
	cacheBuf []actCache // per-layer actCache storage, reused every epoch

	// t1Rows holds this rank's full rows of T¹ (n/√P x f⁰), gathered along
	// the process row once with T¹ itself, so Z¹ = T¹·W¹ needs no panel
	// broadcast in any epoch.
	t1Rows *dense.Matrix

	// rows holds the full rows (n/√P x f) of the block rowsOf: what the
	// weightGrad/inputGrad pair reads (§IV-C-4 gathers once for both
	// products). A row-wise activationBackward leaves G's rows here with G;
	// otherwise fullRows gathers on first use. Cleared at endEpoch.
	rowsOf, rows *dense.Matrix
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *twoDRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

// fBlk returns the Block1D splitting a feature dimension across grid
// columns.
func (r *twoDRank) fBlk(f int) partition.Block1D {
	return partition.NewBlock1D(f, r.grid.Pc)
}

func (r *twoDRank) setup(at *sparse.CSR, features *dense.Matrix) {
	r.pi, r.pj = r.grid.Coords(r.comm.Rank())
	r.rowGroup = r.comm.NewGroup(r.grid.RowRanks(r.pi))
	r.colGroup = r.comm.NewGroup(r.grid.ColRanks(r.pj))
	r.atBlk = at.ExtractBlock(r.vBlk.Lo(r.pi), r.vBlk.Hi(r.pi), r.vBlk.Lo(r.pj), r.vBlk.Hi(r.pj))
	r.atPay = csrPayload(r.atBlk)
	// The transposed local block is static across epochs; the per-epoch
	// exchange resends it (and recharges the transpose work) without
	// recomputing it.
	r.localT = r.atBlk.Transpose()
	r.localTPay = csrPayload(r.localT)
	f0 := r.fBlk(r.cfg.Widths[0])
	r.h0 = features.SubMatrix(r.vBlk.Lo(r.pi), r.vBlk.Hi(r.pi), f0.Lo(r.pj), f0.Hi(r.pj))
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.cnt = make([]float64, 8)
	r.cacheBuf = make([]actCache, r.cfg.Layers()+1)
	// The A block appears twice once the transpose exchange runs.
	r.memBase = 2*csrWords(r.atBlk) + matWords(r.h0) + cfgWeightWords(r.cfg)
	r.recordMem(0)
}

// transposeExchange builds this rank's A block from the Aᵀ blocks by a
// pairwise exchange across the grid diagonal: A_ij = (Aᵀ_ji)ᵀ. This is the
// paper's "trpose" cost (Figure 3); it also charges the local transpose
// work. The exchange repeats every epoch — the payload still crosses the
// fabric and every cost is recharged — but since A is static, the received
// block is materialized only once and reused thereafter.
func (r *twoDRank) transposeExchange() {
	r.comm.ChargeTime(comm.CatTranspose, float64(r.localT.NNZ())*4/r.mach.SpMMRate)
	if r.pi == r.pj {
		r.aBlk = r.localT
		r.aPay = r.localTPay
		return
	}
	peer := r.grid.Rank(r.pj, r.pi)
	got := r.comm.Exchange(peer, r.localTPay, comm.CatTranspose)
	if r.aBlk == nil {
		// Deep-copy out of the received payload: its buffers belong to the
		// fabric's pool and are recycled at the epoch boundary, while the
		// A block must survive the whole run.
		r.aBlk = payloadCSR(got).Clone()
		r.aPay = csrPayload(r.aBlk)
	}
}

// summaSpMM computes my block of op(A)·X where aBlk is my block of op(A)
// (pre-serialized as aPay) and x is my block of the 2D-partitioned dense
// operand. Sparse blocks broadcast along process rows, dense blocks along
// process columns (Algorithm 2, first phase).
//
// In overlap mode stage k+1's panel pair is issued asynchronously before
// stage k's local SpMM runs, double-buffering the in-flight panels (the
// fabric pool holds the incoming buffers, ws the wrapping headers), so the
// stage cost is max(comm, comp). The stage order and every accumulation
// are unchanged, keeping the result bit-identical.
func (r *twoDRank) summaSpMM(aBlk *sparse.CSR, aPay comm.Payload, x *dense.Matrix) *dense.Matrix {
	rows := r.vBlk.Size(r.pi)
	out := r.ws.Get(rows, x.Cols)
	var aReq, xReq *comm.Request
	if r.overlap {
		aReq, xReq = r.summaStage(0, aPay, x)
	}
	for k := 0; k < r.grid.Pc; k++ {
		var aK *sparse.CSR
		var xK *dense.Matrix
		if r.overlap {
			aK = r.csrs.wrap(aReq.Wait())
			xK = wrapMat(r.ws, xReq.Wait())
			if k+1 < r.grid.Pc {
				aReq, xReq = r.summaStage(k+1, aPay, x)
			}
		} else {
			var aIn, xIn comm.Payload
			if k == r.pj {
				aIn = aPay
			}
			if k == r.pi {
				xIn = matPayloadInto(x, r.dims)
			}
			aK = r.csrs.wrap(r.rowGroup.Broadcast(k, aIn, comm.CatSparseComm))
			xK = wrapMat(r.ws, r.colGroup.Broadcast(k, xIn, comm.CatDenseComm))
		}
		r.recordMem(matWords(out) + csrWords(aK) + matWords(xK))
		sparse.SpMMAdd(out, aK, xK)
		r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(aK.NNZ()), aK.Rows, xK.Cols))
	}
	return out
}

// summaStage issues stage k's asynchronous panel broadcasts: the sparse
// panel along the process row, the dense panel along the process column.
// The dims scratch is only written when this rank roots the dense panel
// (k == pi), which happens for exactly one stage, so a single scratch
// survives two stages being in flight.
func (r *twoDRank) summaStage(k int, aPay comm.Payload, x *dense.Matrix) (aReq, xReq *comm.Request) {
	var aIn, xIn comm.Payload
	if k == r.pj {
		aIn = aPay
	}
	if k == r.pi {
		xIn = matPayloadInto(x, r.dims)
	}
	aReq = r.rowGroup.IBroadcast(k, aIn, comm.CatSparseComm)
	xReq = r.colGroup.IBroadcast(k, xIn, comm.CatDenseComm)
	return aReq, xReq
}

// partialSumma computes my block of X·W for the replicated W: X blocks
// broadcast along process rows (Algorithm 2, second phase). The k-th stage
// multiplies X's k-th column block against W[rowBlk(k), colBlk(pj)]. In
// overlap mode stage k+1's broadcast is in flight while stage k's GEMM
// runs; the dims scratch is safe for the same single-root reason as in
// summaStage (only stage pj writes it).
func (r *twoDRank) partialSumma(xBlk *dense.Matrix, w *dense.Matrix) *dense.Matrix {
	rowsB := r.fBlk(w.Rows) // W rows = X's feature dimension, split by pc
	colsB := r.fBlk(w.Cols)
	out := r.ws.Get(xBlk.Rows, colsB.Size(r.pj))
	var xReq *comm.Request
	if r.overlap {
		xReq = r.partialStage(0, xBlk)
	}
	for k := 0; k < r.grid.Pc; k++ {
		var xK *dense.Matrix
		if r.overlap {
			xK = wrapMat(r.ws, xReq.Wait())
			if k+1 < r.grid.Pc {
				xReq = r.partialStage(k+1, xBlk)
			}
		} else {
			var xIn comm.Payload
			if k == r.pj {
				xIn = matPayloadInto(xBlk, r.dims)
			}
			xK = wrapMat(r.ws, r.rowGroup.Broadcast(k, xIn, comm.CatDenseComm))
		}
		wSlice := r.ws.GetUninit(rowsB.Size(k), colsB.Size(r.pj))
		w.SubMatrixInto(wSlice, rowsB.Lo(k), rowsB.Hi(k), colsB.Lo(r.pj), colsB.Hi(r.pj))
		dense.MulAdd(out, xK, wSlice)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(xK.Rows, xK.Cols, wSlice.Cols))
	}
	return out
}

// partialStage issues stage k's asynchronous panel broadcast along the
// process row.
func (r *twoDRank) partialStage(k int, xBlk *dense.Matrix) *comm.Request {
	var xIn comm.Payload
	if k == r.pj {
		xIn = matPayloadInto(xBlk, r.dims)
	}
	return r.rowGroup.IBroadcast(k, xIn, comm.CatDenseComm)
}

// gatherRows all-gathers the column blocks of a 2D-partitioned matrix along
// my process row, returning my full rows (n/√P x f, f the sum of the
// blocks' widths).
func (r *twoDRank) gatherRows(x *dense.Matrix) *dense.Matrix {
	parts := r.rowGroup.AllGather(matPayloadInto(x, r.dims), comm.CatDenseComm)
	f := 0
	for _, part := range parts {
		f += part.Ints[1]
	}
	out := r.ws.GetUninit(x.Rows, f)
	c0 := 0
	for _, part := range parts {
		out.SetSubMatrix(0, c0, wrapMat(r.ws, part))
		c0 += part.Ints[1]
	}
	r.recordMem(matWords(out))
	return out
}

// fullRows returns the full rows of block x: the ones a row-wise
// activationBackward left with it, or a gather, remembered so the second
// of the weightGrad/inputGrad pair reuses it.
func (r *twoDRank) fullRows(x *dense.Matrix) *dense.Matrix {
	if r.rowsOf != x {
		r.rowsOf, r.rows = x, r.gatherRows(x)
	}
	return r.rows
}

// colBlockOf copies my column block of x's full rows out of them.
func (r *twoDRank) colBlockOf(xRow *dense.Matrix) *dense.Matrix {
	fB := r.fBlk(xRow.Cols)
	x := r.ws.GetUninit(xRow.Rows, fB.Size(r.pj))
	xRow.SubMatrixInto(x, 0, xRow.Rows, fB.Lo(r.pj), fB.Hi(r.pj))
	return x
}

func (r *twoDRank) rank() int { return r.comm.Rank() }

func (r *twoDRank) input() *dense.Matrix { return r.h0 }

// forwardAggregate computes Aᵀ X via SUMMA SpMM.
func (r *twoDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := r.summaSpMM(r.atBlk, r.atPay, x)
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch — the block
		// in weightGrad, its full rows in multiplyWeight.
		t = r.ws.Keep(t)
		r.t1Rows = r.ws.Keep(r.gatherRows(t))
		r.memBase += matWords(t) + matWords(r.t1Rows)
	}
	return t
}

// multiplyWeight computes X W via the partial SUMMA — except Z¹ = T¹ W¹,
// whose row panels forwardAggregate gathered for the whole run: a local
// GEMM against W¹[:, colBlk(pj)].
func (r *twoDRank) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
	if l > 1 {
		return r.partialSumma(x, w)
	}
	colsB := r.fBlk(w.Cols)
	wCols := r.ws.GetUninit(w.Rows, colsB.Size(r.pj))
	w.SubMatrixInto(wCols, 0, w.Rows, colsB.Lo(r.pj), colsB.Hi(r.pj))
	z := r.ws.GetUninit(r.t1Rows.Rows, wCols.Cols)
	dense.Mul(z, r.t1Rows, wCols)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(z.Rows, w.Rows, z.Cols))
	return z
}

// activationForward applies σ. Element-wise activations need no
// communication; row-wise activations all-gather Z along the process row,
// apply, and keep my column block, caching the full-row H for backward
// (§IV-C-2).
func (r *twoDRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	if !act.RowWise() {
		h := r.ws.GetUninit(z.Rows, z.Cols)
		act.Forward(h, z)
		return h, nil
	}
	zRow := r.gatherRows(z)
	hRow := r.ws.GetUninit(zRow.Rows, zRow.Cols)
	act.Forward(hRow, zRow)
	cache := &r.cacheBuf[l]
	cache.hRow = hRow
	return r.colBlockOf(hRow), cache
}

// lossGrad computes this block's loss contribution and ∂L/∂H^L: each rank
// owns the labels whose class index falls in its column block, so nothing
// is double counted.
func (r *twoDRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := r.ws.Get(hOut.Rows, hOut.Cols)
	return r.localLossGrad(hOut, grad), grad
}

// localLossGrad computes this block's loss contribution and, if grad is
// non-nil, writes -1/n into the label positions owned by this block.
func (r *twoDRank) localLossGrad(hOut *dense.Matrix, grad *dense.Matrix) float64 {
	fB := r.fBlk(r.cfg.Widths[r.cfg.Layers()]) // class count: the label space, not an operand
	cLo, cHi := fB.Lo(r.pj), fB.Hi(r.pj)
	rLo := r.vBlk.Lo(r.pi)
	inv := 1.0 / float64(r.norm)
	var loss float64
	for i := 0; i < hOut.Rows; i++ {
		if r.mask != nil && !r.mask[rLo+i] {
			continue
		}
		lab := r.labels[rLo+i]
		if lab < cLo || lab >= cHi {
			continue
		}
		loss -= hOut.At(i, lab-cLo) * inv
		if grad != nil {
			grad.Set(i, lab-cLo, -inv)
		}
	}
	return loss
}

// beforeBackward runs the per-epoch transpose exchange that builds A from
// the Aᵀ blocks.
func (r *twoDRank) beforeBackward() {
	r.transposeExchange()
}

// activationBackward computes G = act'(∂L/∂H) from H. Row-wise activations
// need full rows: all-gather dH along the row and reuse the cached full-row
// H (the σ' all-gather of §IV-C-3). G's full rows stay with it for the
// weightGrad/inputGrad pair of an aggregate-first layer.
func (r *twoDRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, cache *actCache, l int) *dense.Matrix {
	if !act.RowWise() {
		g := r.ws.GetUninit(dH.Rows, dH.Cols)
		act.Backward(g, dH, h)
		return g
	}
	dHRow := r.gatherRows(dH)
	gRow := r.ws.GetUninit(dHRow.Rows, dHRow.Cols)
	act.Backward(gRow, dHRow, cache.hRow)
	g := r.colBlockOf(gRow)
	r.rowsOf, r.rows = g, gRow
	return g
}

// backwardAggregate computes A·X via SUMMA SpMM.
func (r *twoDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.summaSpMM(r.aBlk, r.aPay, x)
}

// weightGrad computes Y^l = hPrevᵀ·g: local partial from g's full rows, sum
// down process columns, then replicate along rows (2D dense SUMMA +
// all-gather, §IV-C-4). (H^{l-1}, A G^l) and (T^l, G^l) are laid out alike,
// so one product serves both orders.
func (r *twoDRank) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	gRow := r.fullRows(g)
	partial := r.ws.GetUninit(hPrev.Cols, gRow.Cols)
	dense.TMul(partial, hPrev, gRow)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(hPrev.Cols, hPrev.Rows, gRow.Cols))
	colSum := r.colGroup.AllReduce(partial.Data, comm.CatDenseComm)
	r.dims[0], r.dims[1] = partial.Rows, partial.Cols
	yParts := r.rowGroup.AllGather(
		comm.Payload{Floats: colSum, Ints: r.dims[:2]},
		comm.CatDenseComm)
	fPB := r.fBlk(r.cfg.Widths[l-1]) // W^l's rows: the same in either product order
	dW := r.ws.GetUninit(fPB.Items(), gRow.Cols)
	for j, part := range yParts {
		dW.SetSubMatrix(fPB.Lo(j), 0, wrapMat(r.ws, part))
	}
	return dW
}

// inputGrad computes my block of g·(W^l)ᵀ from g's full rows — already
// gathered by weightGrad — with no communication.
func (r *twoDRank) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
	gRow := r.fullRows(g)
	fPB := r.fBlk(w.Rows)
	wRowBlk := r.ws.GetUninit(fPB.Size(r.pj), w.Cols)
	w.SubMatrixInto(wRowBlk, fPB.Lo(r.pj), fPB.Hi(r.pj), 0, w.Cols)
	dH := r.ws.GetUninit(gRow.Rows, wRowBlk.Rows)
	dense.MulT(dH, gRow, wRowBlk)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(gRow.Rows, w.Cols, wRowBlk.Rows))
	return dH
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace and CSR headers, then (collectively) the
// fabric's payload pool.
func (r *twoDRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.csrs.reset()
	r.rowsOf, r.rows = nil, nil
	r.comm.EpochDone()
}

// correctCounts needs full output rows: it reuses the row-wise
// activation's gathered H when available and all-gathers once (for all
// masks) otherwise. Only column-0 ranks count, so each global row is
// counted once.
func (r *twoDRank) correctCounts(hOut *dense.Matrix, cache *actCache, masks ...[]bool) []float64 {
	hRow := cache.hRowOr(func() *dense.Matrix { return r.gatherRows(hOut) })
	counts := countBuf(r.cnt, len(masks))
	if r.pj != 0 {
		return counts
	}
	argmaxCorrectInto(counts, hRow, r.labels, r.vBlk.Lo(r.pi), masks)
	return counts
}

func (r *twoDRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0.
func (r *twoDRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	fL := r.fBlk(r.cfg.Widths[r.cfg.Layers()])
	full := dense.New(r.n, r.cfg.Widths[r.cfg.Layers()])
	for rank, part := range parts {
		gi, gj := r.grid.Coords(rank)
		full.SetSubMatrix(r.vBlk.Lo(gi), fL.Lo(gj), payloadMat(part))
	}
	return full
}
