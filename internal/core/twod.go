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
// broadcasts of H blocks) followed by a "partial SUMMA" against the
// replicated W (row broadcasts of the intermediate product T). Row-wise
// activations (log_softmax) add an all-gather along process rows. Backward
// runs the same pattern with A — obtained by a pairwise transpose exchange
// across the grid diagonal, the "trpose" category of Figure 3 — plus the
// (H)ᵀ(AG) dense SUMMA with its f×f all-gather.
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

	// agRow caches the full-row gather of the latest backwardAggregate
	// result, reused by the weightGrad and inputGrad calls that follow it
	// (§IV-C-4 gathers AG once for both products). At l = 1, where no
	// backwardAggregate runs, weightGrad fills it with the rows of G¹.
	agRow *dense.Matrix
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

// partialSumma computes my block of T·W for the replicated W: T blocks
// broadcast along process rows (Algorithm 2, second phase). The k-th stage
// multiplies T's k-th column block against W[rowBlk(k), colBlk(pj)]. In
// overlap mode stage k+1's T broadcast is in flight while stage k's GEMM
// runs; the dims scratch is safe for the same single-root reason as in
// summaStage (only stage pj writes it).
func (r *twoDRank) partialSumma(tBlk *dense.Matrix, w *dense.Matrix) *dense.Matrix {
	rowsB := r.fBlk(w.Rows) // W rows = T's feature dimension, split by pc
	colsB := r.fBlk(w.Cols)
	rows := r.vBlk.Size(r.pi)
	out := r.ws.Get(rows, colsB.Size(r.pj))
	var tReq *comm.Request
	if r.overlap {
		tReq = r.partialStage(0, tBlk)
	}
	for k := 0; k < r.grid.Pc; k++ {
		var tK *dense.Matrix
		if r.overlap {
			tK = wrapMat(r.ws, tReq.Wait())
			if k+1 < r.grid.Pc {
				tReq = r.partialStage(k+1, tBlk)
			}
		} else {
			var tIn comm.Payload
			if k == r.pj {
				tIn = matPayloadInto(tBlk, r.dims)
			}
			tK = wrapMat(r.ws, r.rowGroup.Broadcast(k, tIn, comm.CatDenseComm))
		}
		wSlice := r.ws.GetUninit(rowsB.Size(k), colsB.Size(r.pj))
		w.SubMatrixInto(wSlice, rowsB.Lo(k), rowsB.Hi(k), colsB.Lo(r.pj), colsB.Hi(r.pj))
		dense.MulAdd(out, tK, wSlice)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(rows, tK.Cols, wSlice.Cols))
	}
	return out
}

// partialStage issues stage k's asynchronous T broadcast along the process
// row.
func (r *twoDRank) partialStage(k int, tBlk *dense.Matrix) *comm.Request {
	var tIn comm.Payload
	if k == r.pj {
		tIn = matPayloadInto(tBlk, r.dims)
	}
	return r.rowGroup.IBroadcast(k, tIn, comm.CatDenseComm)
}

// gatherRows all-gathers the row blocks of a 2D-partitioned matrix along my
// process row, returning my full rows (n/√P x f).
func (r *twoDRank) gatherRows(x *dense.Matrix, f int) *dense.Matrix {
	fB := r.fBlk(f)
	parts := r.rowGroup.AllGather(matPayloadInto(x, r.dims), comm.CatDenseComm)
	out := r.ws.GetUninit(r.vBlk.Size(r.pi), f)
	for j, part := range parts {
		out.SetSubMatrix(0, fB.Lo(j), wrapMat(r.ws, part))
	}
	r.recordMem(matWords(out))
	return out
}

func (r *twoDRank) rank() int { return r.comm.Rank() }

func (r *twoDRank) input() *dense.Matrix { return r.h0 }

// forwardAggregate computes T = Aᵀ X via SUMMA SpMM.
func (r *twoDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := r.summaSpMM(r.atBlk, r.atPay, x)
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch.
		t = r.ws.Keep(t)
		r.memBase += matWords(t)
	}
	return t
}

// multiplyWeight computes Z = T W via the partial SUMMA.
func (r *twoDRank) multiplyWeight(t, w *dense.Matrix, l int) *dense.Matrix {
	return r.partialSumma(t, w)
}

// activationForward applies σ. Element-wise activations need no
// communication; row-wise activations all-gather Z along the process row,
// apply, and keep my column block, caching the gathered rows for backward
// (§IV-C-2).
func (r *twoDRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
	if !act.RowWise() {
		h := r.ws.GetUninit(z.Rows, z.Cols)
		act.Forward(h, z)
		return h, nil
	}
	fNext := r.cfg.Widths[l]
	zRow := r.gatherRows(z, fNext)
	hRow := r.ws.GetUninit(zRow.Rows, zRow.Cols)
	act.Forward(hRow, zRow)
	fB := r.fBlk(fNext)
	h := r.ws.GetUninit(hRow.Rows, fB.Size(r.pj))
	hRow.SubMatrixInto(h, 0, hRow.Rows, fB.Lo(r.pj), fB.Hi(r.pj))
	cache := &r.cacheBuf[l]
	cache.zRow, cache.hRow = zRow, hRow
	return h, cache
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
	fB := r.fBlk(r.cfg.Widths[r.cfg.Layers()])
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

// activationBackward computes G = act'(∂L/∂H, Z). Row-wise activations
// need full rows: all-gather dH along the row and reuse the cached
// full-row Z (the σ' all-gather of §IV-C-3).
func (r *twoDRank) activationBackward(act dense.Activation, dH, z *dense.Matrix, cache *actCache, l int) *dense.Matrix {
	if !act.RowWise() {
		g := r.ws.GetUninit(dH.Rows, dH.Cols)
		act.Backward(g, dH, z)
		return g
	}
	fl := r.cfg.Widths[l]
	dHRow := r.gatherRows(dH, fl)
	gRow := r.ws.GetUninit(dHRow.Rows, dHRow.Cols)
	act.Backward(gRow, dHRow, cache.zRow)
	fB := r.fBlk(fl)
	g := r.ws.GetUninit(gRow.Rows, fB.Size(r.pj))
	gRow.SubMatrixInto(g, 0, gRow.Rows, fB.Lo(r.pj), fB.Hi(r.pj))
	return g
}

// backwardAggregate (l > 1) computes AG = A·G^l via SUMMA SpMM and caches its
// full-row gather for the weightGrad/inputGrad pair (§IV-C-4).
func (r *twoDRank) backwardAggregate(g *dense.Matrix, l int) *dense.Matrix {
	ag := r.summaSpMM(r.aBlk, r.aPay, g)
	r.agRow = r.gatherRows(ag, r.cfg.Widths[l])
	return ag
}

// weightGrad computes Y^l = (H^{l-1})ᵀ(AG): local partial from the
// gathered AG rows, sum down process columns, then replicate along rows
// (2D dense SUMMA + all-gather, §IV-C-4). At l = 1 the operands are
// (T¹, G¹): T¹ is laid out like H⁰ and G¹ like AG¹, so the same product
// serves once the rows of G¹ are gathered — the one all-gather
// backwardAggregate would have done on AG¹.
func (r *twoDRank) weightGrad(hPrev, ag *dense.Matrix, l int) *dense.Matrix {
	fPrev, fl := r.cfg.Widths[l-1], r.cfg.Widths[l]
	if l == 1 {
		r.agRow = r.gatherRows(ag, fl)
	}
	partial := r.ws.GetUninit(hPrev.Cols, fl)
	dense.TMul(partial, hPrev, r.agRow)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(hPrev.Cols, hPrev.Rows, fl))
	colSum := r.colGroup.AllReduce(partial.Data, comm.CatDenseComm)
	r.dims[0], r.dims[1] = partial.Rows, partial.Cols
	yParts := r.rowGroup.AllGather(
		comm.Payload{Floats: colSum, Ints: r.dims[:2]},
		comm.CatDenseComm)
	dW := r.ws.GetUninit(fPrev, fl)
	fPB := r.fBlk(fPrev)
	for j, part := range yParts {
		dW.SetSubMatrix(fPB.Lo(j), 0, wrapMat(r.ws, part))
	}
	return dW
}

// inputGrad computes ∂L/∂H^{l-1} = AG·(W^l)ᵀ from the already-gathered
// full-row AG with no extra communication.
func (r *twoDRank) inputGrad(ag, w *dense.Matrix, l int) *dense.Matrix {
	fl := r.cfg.Widths[l]
	fPB := r.fBlk(r.cfg.Widths[l-1])
	wRowBlk := r.ws.GetUninit(fPB.Size(r.pj), fl)
	w.SubMatrixInto(wRowBlk, fPB.Lo(r.pj), fPB.Hi(r.pj), 0, fl)
	dH := r.ws.GetUninit(r.agRow.Rows, wRowBlk.Rows)
	dense.MulT(dH, r.agRow, wRowBlk)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(r.agRow.Rows, fl, wRowBlk.Rows))
	return dH
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace and CSR headers, then (collectively) the
// fabric's payload pool.
func (r *twoDRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.csrs.reset()
	r.comm.EpochDone()
}

// correctCounts needs full output rows: it reuses the row-wise
// activation's gathered H when available and all-gathers once (for all
// masks) otherwise. Only column-0 ranks count, so each global row is
// counted once.
func (r *twoDRank) correctCounts(hOut *dense.Matrix, cache *actCache, masks ...[]bool) []float64 {
	hRow := cache.hRowOr(func() *dense.Matrix {
		return r.gatherRows(hOut, r.cfg.Widths[r.cfg.Layers()])
	})
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
