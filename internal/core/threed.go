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

// ThreeD implements the paper's block 3D algorithm, Split-3D-SpMM (§IV-D):
// processes form a ∛P x ∛P x ∛P mesh. Each Aᵀ block is n/∛P x n/∛P² —
// the vertex dimension is split ∛P ways by grid row and a further ∛P ways
// by layer — while H blocks are n/∛P² x f/∛P. Every 2D layer of the mesh
// runs an independent SUMMA over its column sub-slices, and partial sums
// are reduce-scattered along the fiber dimension, the P^{1/3}
// memory-replicating step of 3D algorithms.
//
// The paper analyzes but does not implement this algorithm (§IV-D-5); this
// implementation completes the family. A must be symmetric (A = Aᵀ), which
// holds for the normalized adjacency of every dataset in the paper, so
// backward reuses the forward blocks without a transpose step; Train
// rejects any other A.
type ThreeD struct {
	p       int
	mach    costmodel.Machine
	cluster *comm.Cluster
	ext     *comm.Comm // external transport endpoint; see SetTransportComm

	// Overlap pipelines the per-layer SUMMA loops exactly like TwoD.Overlap:
	// stage q+1's panel broadcasts fly while stage q's local SpMM/GEMM runs
	// (the fiber reduce-scatter stays synchronous — its result is consumed
	// immediately). Bit-identical to the synchronous path. Set before Train.
	Overlap bool
}

// NewThreeD returns a Split-3D-SpMM trainer over p simulated ranks; p must
// be a perfect cube.
func NewThreeD(p int, mach costmodel.Machine) *ThreeD {
	return &ThreeD{
		p:       p,
		mach:    mach,
		cluster: comm.NewCluster(p, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}),
	}
}

// Name implements Trainer.
func (t *ThreeD) Name() string { return "3d" }

// Cluster implements DistTrainer.
func (t *ThreeD) Cluster() *comm.Cluster { return t.cluster }

// runRanks validates p, builds each rank's layerOps, and executes body on
// every simulated rank. Train drives it with the standard engine run; the
// steady-state allocation tests drive a custom epoch loop through it.
func (t *ThreeD) runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return err
	}
	if !partition.IsPerfectCube(t.p) {
		return fmt.Errorf("core: 3d trainer needs a perfect-cube rank count, got %d", t.p)
	}
	if err := requireSymmetric(p.A, t.Name()); err != nil {
		return err
	}
	cfg := p.Config.WithDefaults()
	n := p.A.Rows
	mesh := partition.NewGrid3D(t.p)
	if mesh.C*mesh.C > n {
		return fmt.Errorf("core: 3d mesh needs n ≥ ∛P² (%d), got %d vertices", mesh.C*mesh.C, n)
	}
	run := func(c *comm.Comm) error {
		r := &threeDRank{
			comm: c, mach: t.mach, cfg: cfg, mesh: mesh, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
			vBlk: partition.NewBlock1D(n, mesh.C),
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
func (t *ThreeD) Train(p Problem) (*Result, error) {
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

// threeDRank holds one rank's state during 3D training and implements
// layerOps with the Split-3D-SpMM collective choreography. Per-epoch
// temporaries come from ws and the csrs header arena, both reset at
// endEpoch together with the fabric's payload pool.
type threeDRank struct {
	comm    *comm.Comm
	mach    costmodel.Machine
	cfg     nn.Config
	mesh    partition.Grid3D
	overlap bool
	labels  []int
	mask    []bool
	norm    int
	n       int
	vBlk    partition.Block1D // vertex dimension split ∛P ways

	pi, pj, pk int         // mesh coordinates: row, column, layer
	rowGroup   *comm.Group // (pi, *, pk)
	colGroup   *comm.Group // (*, pj, pk)
	fiberGroup *comm.Group // (pi, pj, *)
	planeGroup *comm.Group // (*, pj, *): all ranks sharing grid column pj
	atBlk      *sparse.CSR // Aᵀ(rows of pi, column sub-slice (pj, pk))
	atPay      comm.Payload
	h0         *dense.Matrix
	memBase    int64

	ws       *dense.Workspace
	csrs     csrArena
	dims     []int
	rsCounts []int
	cnt      []float64
	cacheBuf []actCache

	// t1Rows holds this rank's full rows of T¹ (n/∛P² x f⁰), gathered along
	// the layer row once with T¹ itself, so Z¹ = T¹·W¹ needs no panel
	// broadcast in any epoch.
	t1Rows *dense.Matrix

	// rows holds the full rows of the block rowsOf: what the
	// weightGrad/inputGrad pair reads (§IV-D-4 gathers once for both
	// products). A row-wise activationBackward leaves G's rows here with G;
	// otherwise fullRows gathers on first use. Cleared at endEpoch.
	rowsOf, rows *dense.Matrix
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *threeDRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

// subRange returns the global index range of sub-slice k within vertex
// block q: block q of Block1D(n, C), subdivided C ways.
func (r *threeDRank) subRange(q, k int) (int, int) {
	inner := partition.NewBlock1D(r.vBlk.Size(q), r.mesh.C)
	base := r.vBlk.Lo(q)
	return base + inner.Lo(k), base + inner.Hi(k)
}

// fBlk splits a feature dimension across mesh columns.
func (r *threeDRank) fBlk(f int) partition.Block1D {
	return partition.NewBlock1D(f, r.mesh.C)
}

func (r *threeDRank) setup(a *sparse.CSR, features *dense.Matrix) {
	r.pi, r.pj, r.pk = r.mesh.Coords(r.comm.Rank())
	r.rowGroup = r.comm.NewGroup(r.mesh.LayerRowRanks(r.pi, r.pk))
	r.colGroup = r.comm.NewGroup(r.mesh.LayerColRanks(r.pj, r.pk))
	r.fiberGroup = r.comm.NewGroup(r.mesh.FiberRanks(r.pi, r.pj))
	var plane []int
	for i := 0; i < r.mesh.C; i++ {
		for k := 0; k < r.mesh.C; k++ {
			plane = append(plane, r.mesh.Rank(i, r.pj, k))
		}
	}
	r.planeGroup = r.comm.NewGroup(plane)

	// Aᵀ block: rows of grid-row pi, columns = sub-slice (pj, pk). Since A
	// is required symmetric, Aᵀ = A and we read blocks from a directly.
	cLo, cHi := r.subRange(r.pj, r.pk)
	r.atBlk = a.ExtractBlock(r.vBlk.Lo(r.pi), r.vBlk.Hi(r.pi), cLo, cHi)
	r.atPay = csrPayload(r.atBlk)
	// H block: rows = sub-slice (pi, pk), feature columns of pj.
	rLo, rHi := r.subRange(r.pi, r.pk)
	f0 := r.fBlk(r.cfg.Widths[0])
	r.h0 = features.SubMatrix(rLo, rHi, f0.Lo(r.pj), f0.Hi(r.pj))
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.rsCounts = make([]int, r.mesh.C)
	r.cnt = make([]float64, 8)
	r.cacheBuf = make([]actCache, r.cfg.Layers()+1)
	r.memBase = csrWords(r.atBlk) + matWords(r.h0) + cfgWeightWords(r.cfg)
	r.recordMem(0)
}

// split3DSpMM computes my block of Aᵀ·X (X distributed like H) via the
// Split-3D-SpMM: independent SUMMA per mesh layer over the column
// sub-slices, then a reduce-scatter along the fiber so the result lands in
// the same n/∛P² x f/∛P layout as X (§IV-D-1).
func (r *threeDRank) split3DSpMM(x *dense.Matrix) *dense.Matrix {
	myRows := r.vBlk.Size(r.pi)
	partial := r.ws.Get(myRows, x.Cols)
	var aReq, xReq *comm.Request
	if r.overlap {
		aReq, xReq = r.splitStage(0, x)
	}
	for q := 0; q < r.mesh.C; q++ {
		var aQ *sparse.CSR
		var xQ *dense.Matrix
		if r.overlap {
			aQ = r.csrs.wrap(aReq.Wait())
			xQ = wrapMat(r.ws, xReq.Wait())
			if q+1 < r.mesh.C {
				aReq, xReq = r.splitStage(q+1, x)
			}
		} else {
			var aIn, xIn comm.Payload
			if q == r.pj {
				aIn = r.atPay
			}
			if q == r.pi {
				xIn = matPayloadInto(x, r.dims)
			}
			// Sparse block Aᵀ(row pi, sub-slice (q, pk)) broadcasts along
			// the layer row; dense block X(sub-slice (q, pk), fcols pj)
			// along the layer column.
			aQ = r.csrs.wrap(r.rowGroup.Broadcast(q, aIn, comm.CatSparseComm))
			xQ = wrapMat(r.ws, r.colGroup.Broadcast(q, xIn, comm.CatDenseComm))
		}
		// partial is the layer's pre-reduction sum: the P^{1/3}-replicated
		// intermediate of §IV-D-1.
		r.recordMem(matWords(partial) + csrWords(aQ) + matWords(xQ))
		sparse.SpMMAdd(partial, aQ, xQ)
		r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(aQ.NNZ()), aQ.Rows, xQ.Cols))
	}
	// Fiber reduce-scatter: partial sums for T(row block pi) are summed
	// across layers and scattered so layer k keeps row sub-slice (pi, k).
	for k := 0; k < r.mesh.C; k++ {
		lo, hi := r.subRange(r.pi, k)
		r.rsCounts[k] = (hi - lo) * x.Cols
	}
	myLo, myHi := r.subRange(r.pi, r.pk)
	return r.ws.Wrap(myHi-myLo, x.Cols,
		r.fiberGroup.ReduceScatter(partial.Data, r.rsCounts, comm.CatDenseComm))
}

// splitStage issues stage q's asynchronous panel pair of the Split-3D-SpMM:
// the sparse panel along the layer row, the dense panel along the layer
// column. Only stage pi writes the dims scratch (the single dense-panel
// root), so one scratch survives two in-flight stages.
func (r *threeDRank) splitStage(q int, x *dense.Matrix) (aReq, xReq *comm.Request) {
	var aIn, xIn comm.Payload
	if q == r.pj {
		aIn = r.atPay
	}
	if q == r.pi {
		xIn = matPayloadInto(x, r.dims)
	}
	aReq = r.rowGroup.IBroadcast(q, aIn, comm.CatSparseComm)
	xReq = r.colGroup.IBroadcast(q, xIn, comm.CatDenseComm)
	return aReq, xReq
}

// partialSplit3D computes my block of X·W for replicated W: X blocks
// broadcast along layer rows, as in the 2D partial SUMMA but within each
// mesh layer.
func (r *threeDRank) partialSplit3D(xBlk *dense.Matrix, w *dense.Matrix) *dense.Matrix {
	rowsB := r.fBlk(w.Rows)
	colsB := r.fBlk(w.Cols)
	out := r.ws.Get(xBlk.Rows, colsB.Size(r.pj))
	var xReq *comm.Request
	if r.overlap {
		xReq = r.partialStage(0, xBlk)
	}
	for q := 0; q < r.mesh.C; q++ {
		var xQ *dense.Matrix
		if r.overlap {
			xQ = wrapMat(r.ws, xReq.Wait())
			if q+1 < r.mesh.C {
				xReq = r.partialStage(q+1, xBlk)
			}
		} else {
			var xIn comm.Payload
			if q == r.pj {
				xIn = matPayloadInto(xBlk, r.dims)
			}
			xQ = wrapMat(r.ws, r.rowGroup.Broadcast(q, xIn, comm.CatDenseComm))
		}
		wSlice := r.ws.GetUninit(rowsB.Size(q), colsB.Size(r.pj))
		w.SubMatrixInto(wSlice, rowsB.Lo(q), rowsB.Hi(q), colsB.Lo(r.pj), colsB.Hi(r.pj))
		dense.MulAdd(out, xQ, wSlice)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(xQ.Rows, xQ.Cols, wSlice.Cols))
	}
	return out
}

// partialStage issues stage q's asynchronous panel broadcast along the
// layer row.
func (r *threeDRank) partialStage(q int, xBlk *dense.Matrix) *comm.Request {
	var xIn comm.Payload
	if q == r.pj {
		xIn = matPayloadInto(xBlk, r.dims)
	}
	return r.rowGroup.IBroadcast(q, xIn, comm.CatDenseComm)
}

// gatherRows all-gathers my feature-column blocks along the layer row,
// returning full rows (n/∛P² x f, f the sum of the blocks' widths).
func (r *threeDRank) gatherRows(x *dense.Matrix) *dense.Matrix {
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
func (r *threeDRank) fullRows(x *dense.Matrix) *dense.Matrix {
	if r.rowsOf != x {
		r.rowsOf, r.rows = x, r.gatherRows(x)
	}
	return r.rows
}

// colBlockOf copies my column block of x's full rows out of them.
func (r *threeDRank) colBlockOf(xRow *dense.Matrix) *dense.Matrix {
	fB := r.fBlk(xRow.Cols)
	x := r.ws.GetUninit(xRow.Rows, fB.Size(r.pj))
	xRow.SubMatrixInto(x, 0, xRow.Rows, fB.Lo(r.pj), fB.Hi(r.pj))
	return x
}

func (r *threeDRank) rank() int { return r.comm.Rank() }

func (r *threeDRank) input() *dense.Matrix { return r.h0 }

// forwardAggregate computes Aᵀ X via Split-3D-SpMM.
func (r *threeDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := r.split3DSpMM(x)
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch — the block
		// in weightGrad, its full rows in multiplyWeight. The block arrives
		// in the reduce-scatter's payload, so Keep copies it out.
		t = r.ws.Keep(t)
		r.t1Rows = r.ws.Keep(r.gatherRows(t))
		r.memBase += matWords(t) + matWords(r.t1Rows)
	}
	return t
}

// multiplyWeight computes X W within each mesh layer — except Z¹ = T¹ W¹,
// whose row panels forwardAggregate gathered for the whole run: a local
// GEMM against W¹[:, colBlk(pj)].
func (r *threeDRank) multiplyWeight(x, w *dense.Matrix, l int) *dense.Matrix {
	if l > 1 {
		return r.partialSplit3D(x, w)
	}
	colsB := r.fBlk(w.Cols)
	wCols := r.ws.GetUninit(w.Rows, colsB.Size(r.pj))
	w.SubMatrixInto(wCols, 0, w.Rows, colsB.Lo(r.pj), colsB.Hi(r.pj))
	z := r.ws.GetUninit(r.t1Rows.Rows, wCols.Cols)
	dense.Mul(z, r.t1Rows, wCols)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(z.Rows, w.Rows, z.Cols))
	return z
}

// activationForward applies σ. Row-wise activations all-gather along the
// layer row to complete each row; no cross-layer or cross-row
// communication is needed (§IV-D-2).
func (r *threeDRank) activationForward(act dense.Activation, z *dense.Matrix, l int) (*dense.Matrix, *actCache) {
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
// owns the labels whose class index falls in its column block.
func (r *threeDRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := r.ws.Get(hOut.Rows, hOut.Cols)
	return r.localLossGrad(hOut, grad), grad
}

// localLossGrad computes this block's loss contribution and, if grad is
// non-nil, writes -1/n into the label positions owned by this block.
func (r *threeDRank) localLossGrad(hOut *dense.Matrix, grad *dense.Matrix) float64 {
	fB := r.fBlk(r.cfg.Widths[r.cfg.Layers()]) // class count: the label space, not an operand
	cLo, cHi := fB.Lo(r.pj), fB.Hi(r.pj)
	rLo, _ := r.subRange(r.pi, r.pk)
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

func (r *threeDRank) beforeBackward() {}

// activationBackward computes G = act'(∂L/∂H) from H; row-wise activations
// gather dH along the layer row and reuse the cached full-row H. G's full
// rows stay with it for the weightGrad/inputGrad pair of an aggregate-first
// layer.
func (r *threeDRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, cache *actCache, l int) *dense.Matrix {
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

// backwardAggregate computes A·X. A is symmetric, so the Aᵀ blocks serve
// directly — the 3D trainer's structural shortcut for undirected graphs.
func (r *threeDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.split3DSpMM(x)
}

// weightGrad computes Y^l = hPrevᵀ·g: local partial from g's full rows,
// all-reduce over the plane of ranks sharing my feature column (summing
// over both grid rows and layers), then all-gather along the layer row to
// replicate Y (§IV-D-4). (H^{l-1}, A G^l) and (T^l, G^l) are laid out
// alike, so one product serves both orders.
func (r *threeDRank) weightGrad(hPrev, g *dense.Matrix, l int) *dense.Matrix {
	gRow := r.fullRows(g)
	partial := r.ws.GetUninit(hPrev.Cols, gRow.Cols)
	dense.TMul(partial, hPrev, gRow)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(hPrev.Cols, hPrev.Rows, gRow.Cols))
	planeSum := r.planeGroup.AllReduce(partial.Data, comm.CatDenseComm)
	r.dims[0], r.dims[1] = partial.Rows, partial.Cols
	yParts := r.rowGroup.AllGather(
		comm.Payload{Floats: planeSum, Ints: r.dims[:2]},
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
func (r *threeDRank) inputGrad(g, w *dense.Matrix, l int) *dense.Matrix {
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
func (r *threeDRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.csrs.reset()
	r.rowsOf, r.rows = nil, nil
	r.comm.EpochDone()
}

// correctCounts needs full output rows: it reuses the row-wise
// activation's gathered H when available and all-gathers once (for all
// masks) otherwise. Only column-0 ranks count, so each (pi, pk) row
// sub-slice is counted once.
func (r *threeDRank) correctCounts(hOut *dense.Matrix, cache *actCache, masks ...[]bool) []float64 {
	hRow := cache.hRowOr(func() *dense.Matrix { return r.gatherRows(hOut) })
	counts := countBuf(r.cnt, len(masks))
	if r.pj != 0 {
		return counts
	}
	rLo, _ := r.subRange(r.pi, r.pk)
	argmaxCorrectInto(counts, hRow, r.labels, rLo, masks)
	return counts
}

func (r *threeDRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0.
func (r *threeDRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	fL := r.fBlk(r.cfg.Widths[r.cfg.Layers()])
	full := dense.New(r.n, r.cfg.Widths[r.cfg.Layers()])
	for rank, part := range parts {
		gi, gj, gk := r.mesh.Coords(rank)
		rLo, _ := r.subRange(gi, gk)
		full.SetSubMatrix(rLo, fL.Lo(gj), payloadMat(part))
	}
	return full
}
