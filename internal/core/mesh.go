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

// meshTrainer implements the paper's block 2D algorithm (§IV-C, Algorithm 2) and
// block 3D algorithm, Split-3D-SpMM (§IV-D), as one SUMMA on a q × q × d
// process mesh: A, H and G are distributed over the mesh, W is replicated.
// The depth is a function of the algorithm, not an option:
//
//   - "2d" is the √P × √P grid, depth 1.
//   - "3d" is the ∛P × ∛P × ∛P cube. Each Aᵀ block is n/∛P × n/∛P² — the
//     vertex dimension is split ∛P ways by grid row and a further ∛P ways by
//     layer — while H blocks are n/∛P² × f/∛P. Every layer of the mesh runs
//     an independent SUMMA over its column sub-slices, and partial sums are
//     reduce-scattered along the fiber dimension, the P^{1/3}
//     memory-replicating step of 3D algorithms. The paper analyzes but does
//     not implement it (§IV-D-5).
//
// Each forward layer runs a SUMMA SpMM (row broadcasts of Aᵀ blocks, column
// broadcasts of dense blocks) and a "partial SUMMA" against the replicated
// W (row broadcasts of the dense operand's panels), in the order the engine
// picks per layer. Backward runs the same pattern with A, plus the dense
// SUMMA for Y with its f×f all-gather.
//
// Backward needs A where forward used Aᵀ (the "trpose" category of Figure
// 3). Whether the mesh pays for it depends on the data alone, at every
// depth: on an undirected graph — the normalized adjacency of every dataset
// in the paper — the A blocks are the Aᵀ blocks and backward reuses the
// forward pass's row panels; on a directed one each rank builds its A block
// by the transpose exchange (transposeExchange).
//
// The output layer L is the exception. Algorithm 2 all-gathers Z^L and
// ∂L/∂H^L along every process row for the row-wise log_softmax (§IV-C-2,
// §IV-C-3), and every member of the row repeats the same full-row work.
// Here layer L runs row-split inside each process row: member pj holds row
// sub-slice pj of the row's n/(q·d) rows (outBlk) with all f^L columns, so
// log_softmax, the loss and the accuracy counts are local. The layer's
// narrower operand crosses in by one all-to-all along the process row and
// one crosses back (toRows, fromRows; see rowsLayer). A row-wise hidden
// activation would need full rows at every layer, so the mesh rejects one.
//
// Algorithm 2 broadcasts the sparse blocks in every stage of every epoch and
// repeats the transpose every epoch; A never changes, so here they cross the
// network once per run. A rank keeps the sparse row panels the first SUMMA
// of each direction delivers — Aᵀ(i,·) while T¹ is aggregated and, on a
// directed graph, A(i,·) in the first backward aggregation, which starts with
// the transpose exchange — and every later stage broadcasts its dense panel
// alone. The cost is resident memory: nnz/√P sparse words per direction
// instead of 2D's nnz/P (nnz/P^{2/3} on 3D), one direction when A = Aᵀ,
// reported to the word (memBase). The panels are derived data, not state: a
// resumed run gathers them again.
type meshTrainer struct{ dist }

// NewTwoD returns a 2D SUMMA trainer (§IV-C) over p simulated ranks — the
// mesh at depth 1; p must be a perfect square.
func NewTwoD(p int, mach costmodel.Machine) *meshTrainer { return newMeshTrainer("2d", p, mach) }

// NewThreeD returns a Split-3D-SpMM trainer (§IV-D) over p simulated ranks —
// the mesh at depth ∛P; p must be a perfect cube.
func NewThreeD(p int, mach costmodel.Machine) *meshTrainer { return newMeshTrainer("3d", p, mach) }

func newMeshTrainer(name string, p int, mach costmodel.Machine) *meshTrainer {
	t := &meshTrainer{dist: newDist(name, p, mach)}
	t.decompose = t.newRanks
	return t
}

// meshFor returns the mesh the named algorithm ("2d" or "3d") runs p ranks
// on, or the error for a rank count it cannot use.
func meshFor(name string, p int) (partition.Grid3D, error) {
	if name == "3d" {
		if !partition.IsPerfectCube(p) {
			return partition.Grid3D{}, fmt.Errorf("core: 3d trainer needs a perfect-cube rank count, got %d", p)
		}
		return partition.NewGrid3D(p), nil
	}
	if !partition.IsPerfectSquare(p) {
		return partition.Grid3D{}, fmt.Errorf("core: 2d trainer needs a perfect-square rank count, got %d", p)
	}
	return partition.NewMesh(partition.NewSquareGrid(p).Pr, 1), nil
}

// newRanks is the mesh decomposition (dist.decompose).
func (t *meshTrainer) newRanks(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error) {
	mesh, err := meshFor(t.name, t.p)
	if err != nil {
		return nil, err
	}
	// The forward SUMMA multiplies blocks of Aᵀ, the backward one blocks of
	// A. On an undirected graph they are the same blocks, read straight out
	// of A; only a directed one pays for the global transpose and the
	// transpose exchange, as the block-row trainer pays for a second block
	// set.
	at, directed := p.A, !symmetric(p.A)
	if directed {
		at = p.A.Transpose()
	}
	n := p.A.Rows
	if mesh.C*mesh.D > n {
		return nil, fmt.Errorf("core: the %s mesh splits the vertices %d ways, the graph has only %d", t.name, mesh.C*mesh.D, n)
	}
	if cfg.Layers() > 1 && cfg.Hidden.RowWise() {
		return nil, fmt.Errorf("core: the %s mesh applies a row-wise activation only at the output layer, not %s", t.name, cfg.Hidden.Name())
	}
	features := p.features()
	return func(c *comm.Comm) layerOps {
		r := &meshRank{
			comm: c, mach: t.mach, cfg: cfg, mesh: mesh,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
			vBlk: partition.NewBlock1D(n, mesh.C),
		}
		r.setup(at, directed, features)
		return r
	}, nil
}

// meshRank holds one rank's state during 2D or 3D training and implements
// layerOps with the SUMMA collective choreography, pipelined: each SUMMA
// issues stage k+1's panel broadcasts before it multiplies stage k.
// Per-epoch temporaries come from ws and the fabric: each step hands back
// its own scratch and every payload it received once it is consumed, the
// engine every result after its last reader (release, which also drops the
// full rows gathered from it), and endEpoch the rest, together with the
// fabric's payload pool.
type meshRank struct {
	comm   *comm.Comm
	mach   costmodel.Machine
	cfg    nn.Config
	mesh   partition.Grid3D
	labels []int
	mask   []bool
	norm   int
	n      int
	vBlk   partition.Block1D // vertex dimension split q ways

	pi, pj, pk int         // mesh coordinates: row, column, layer
	rowGroup   *comm.Group // (pi, *, pk)
	colGroup   *comm.Group // (*, pj, pk)
	fiberGroup *comm.Group // (pi, pj, *); nil at depth 1
	planeGroup *comm.Group // (*, pj, *): all ranks sharing grid column pj; colGroup at depth 1
	h0         *dense.Matrix
	memBase    int64

	// at and a are the sparse side of the forward and the backward SUMMA: Aᵀ
	// and A. When A = Aᵀ, a is at; on a directed graph a's block is what the
	// transpose exchange leaves, nil until the first backwardAggregate.
	at, a *sparseOperand

	ws       *dense.Workspace
	dims     []int
	rsCounts []int
	cnt      []float64

	// outBlk splits the rows of my sub-slice (pi, pk) q ways: the output
	// layer's layout, in which I hold rows outBlk(pj) — global rows from
	// outLo — with all f^L columns. parts is the all-to-all's outbound
	// scratch, one payload per member of the process row, and sent the
	// column blocks fromRows copies into them.
	outBlk partition.Block1D
	outLo  int
	parts  []comm.Payload
	sent   []*dense.Matrix

	// tRows is my output-layer row sub-slice of T^L when layer L aggregates
	// first: multiplyWeight forms it, weightGrad reads and releases it.
	tRows *dense.Matrix

	// t1Rows holds this rank's full rows of T¹ (n/(q·d) x f⁰), gathered along
	// the process row once with T¹ itself, so Z¹ = T¹·W¹ needs no panel
	// broadcast in any epoch.
	t1Rows *dense.Matrix

	// rows holds the full rows of the block rowsOf: what the
	// weightGrad/inputGrad pair reads (§IV-C-4, §IV-D-4 gather once for both
	// products); fullRows gathers them on first use. The cache is keyed by
	// the block's header, which the workspace hands out again once the block
	// is released, so release drops both; so does endEpoch.
	rowsOf, rows *dense.Matrix
}

// sparseOperand is one rank's share of op(A) in one SUMMA direction.
type sparseOperand struct {
	// blk is my block: Aᵀ(rows of pi, column sub-slice (pj, pk)) or its A
	// counterpart.
	blk *sparse.CSR
	// held[k] is stage k's row panel, op(A)(row pi, sub-slice (k, pk)), kept
	// for the whole run once the first SUMMA of the direction has broadcast
	// it (nil until then): a copy out of the fabric's payload, except
	// held[pj], which is blk.
	held []*sparse.CSR
}

// recordMem reports the resident footprint: persistent blocks plus the
// given live intermediate words.
func (r *meshRank) recordMem(extra int64) {
	r.comm.Ledger().RecordMem(r.memBase + extra)
}

// subRange returns the global index range of sub-slice k within vertex
// block q: block q of Block1D(n, C), subdivided D ways (the whole block at
// depth 1).
func (r *meshRank) subRange(q, k int) (int, int) {
	inner := partition.NewBlock1D(r.vBlk.Size(q), r.mesh.D)
	base := r.vBlk.Lo(q)
	return base + inner.Lo(k), base + inner.Hi(k)
}

// fBlk returns the Block1D splitting a feature dimension across mesh
// columns.
func (r *meshRank) fBlk(f int) partition.Block1D {
	return partition.NewBlock1D(f, r.mesh.C)
}

// outRows returns the global row range rank (i, j, k) holds in the output
// layer: row sub-slice j of vertex sub-slice (i, k).
func (r *meshRank) outRows(i, j, k int) (int, int) {
	lo, hi := r.subRange(i, k)
	blk := partition.NewBlock1D(hi-lo, r.mesh.C)
	return lo + blk.Lo(j), lo + blk.Hi(j)
}

// rowsLayer reports whether layer l is the output layer in the product
// order aggFirst names. Either way the layer's narrower operand crosses: an
// aggregate-first output layer enters its row layout with T^L in
// multiplyWeight (Z^L is then one local GEMM, Y^L one world all-reduce; at
// L = 1 the rows come from t1Rows) and leaves with ∂L/∂T^L in inputGrad; a
// multiply-first one enters with Z^L in activationForward and leaves with
// G^L in activationBackward.
func (r *meshRank) rowsLayer(l int, aggFirst bool) bool {
	return l == r.cfg.Layers() && aggregatesFirst(r.cfg.Widths, l) == aggFirst
}

// setup cuts this rank's blocks out of Aᵀ and H⁰; directed says A ≠ Aᵀ, so
// the A block comes from the transpose exchange rather than being the Aᵀ
// block.
func (r *meshRank) setup(at *sparse.CSR, directed bool, features *dense.Matrix) {
	r.pi, r.pj, r.pk = r.mesh.Coords(r.comm.Rank())
	r.rowGroup = r.comm.NewGroup(r.mesh.LayerRowRanks(r.pi, r.pk))
	r.colGroup = r.comm.NewGroup(r.mesh.LayerColRanks(r.pj, r.pk))
	r.planeGroup = r.colGroup
	if r.mesh.D > 1 {
		r.fiberGroup = r.comm.NewGroup(r.mesh.FiberRanks(r.pi, r.pj))
		r.planeGroup = r.comm.NewGroup(r.mesh.PlaneRanks(r.pj))
		r.rsCounts = make([]int, r.mesh.D)
	}

	// Aᵀ block: rows of grid-row pi, columns = sub-slice (pj, pk).
	cLo, cHi := r.subRange(r.pj, r.pk)
	r.at = &sparseOperand{
		blk:  at.ExtractBlock(r.vBlk.Lo(r.pi), r.vBlk.Hi(r.pi), cLo, cHi),
		held: make([]*sparse.CSR, r.mesh.C),
	}
	r.a = r.at
	if directed {
		r.a = &sparseOperand{held: make([]*sparse.CSR, r.mesh.C)}
	}
	// H block: rows = sub-slice (pi, pk), feature columns of pj.
	rLo, rHi := r.subRange(r.pi, r.pk)
	f0 := r.fBlk(r.cfg.Widths[0])
	r.h0 = features.SubMatrix(rLo, rHi, f0.Lo(r.pj), f0.Hi(r.pj))
	r.ws = dense.NewWorkspace()
	r.dims = make([]int, 2)
	r.cnt = make([]float64, 8)
	r.outBlk = partition.NewBlock1D(rHi-rLo, r.mesh.C)
	r.outLo, _ = r.outRows(r.pi, r.pj, r.pk)
	r.parts = make([]comm.Payload, r.mesh.C)
	r.sent = make([]*dense.Matrix, r.mesh.C)
	r.memBase = csrWords(r.at.blk) + matWords(r.h0) + cfgWeightWords(r.cfg)
	r.recordMem(0)
}

// transposeExchange builds this rank's A block from the Aᵀ blocks. Rank
// (a, b, c) holds Aᵀ(rows of a, sub-slice (b, c)) and needs A(rows of a,
// sub-slice (b, c)), the transpose of Aᵀ(sub-slice (b, c), rows of a). Its
// column blocks subRange(a, k) sit in the blocks of ranks (b, a, k), k =
// 0..d−1, so the rank swaps with each of them: it sends its block's rows
// subRange(a, k) and receives that rank's rows subRange(b, c), a swap with
// itself staying local. Swap s pairs layers c and k with c + k ≡ s (mod d),
// the same s on both sides of a pair, so every swap is a perfect matching.
// Transposed, the part from layer k is rows subRange(a, k) of the A block.
// At depth 1 this is one exchange across the grid diagonal. This is the
// paper's "trpose" cost (Figure 3); it also charges the local transpose
// work. A is static, so it runs once per run, before the first backward
// SUMMA, and only on a directed graph: from then on the rank holds its A
// block beside its Aᵀ block. The parts are transposed into storage of the
// rank's own, and each received payload goes back to the fabric.
func (r *meshRank) transposeExchange() {
	d, lo := r.mesh.D, r.vBlk.Lo(r.pi)
	parts := make([]*sparse.CSR, d)
	nnz := 0
	for s := 0; s < d; s++ {
		k := (s - r.pk + d) % d
		rLo, rHi := r.subRange(r.pi, k)
		send := r.at.blk.ExtractBlock(rLo-lo, rHi-lo, 0, r.at.blk.Cols)
		var got comm.Payload
		if peer := r.mesh.Rank(r.pj, r.pi, k); peer != r.comm.Rank() {
			got = r.comm.Exchange(peer, csrPayload(send), comm.CatTranspose)
			send = payloadCSR(got)
		}
		parts[k] = send.Transpose()
		nnz += send.NNZ()
		r.comm.Release(got)
	}
	r.comm.ChargeTime(comm.CatTranspose, float64(nnz)*4/r.mach.SpMMRate)
	r.a.blk = stackRows(parts)
	r.memBase += csrWords(r.a.blk)
}

// stackRows returns the matrix whose rows are those of parts, in order; the
// parts share their column count.
func stackRows(parts []*sparse.CSR) *sparse.CSR {
	out := &sparse.CSR{Cols: parts[0].Cols, RowPtr: []int{0}}
	for _, p := range parts {
		base := len(out.ColIdx)
		for _, end := range p.RowPtr[1:] {
			out.RowPtr = append(out.RowPtr, base+end)
		}
		out.Rows += p.Rows
		out.ColIdx = append(out.ColIdx, p.ColIdx...)
		out.Val = append(out.Val, p.Val...)
	}
	return out
}

// summaSpMM computes my block of op(A)·X where a is my share of op(A) and x
// my block of the dense operand, distributed like H: an independent SUMMA
// per mesh layer over the column sub-slices — sparse blocks broadcast along
// process rows the first time the direction runs and held from then on,
// dense blocks broadcast along process columns (Algorithm 2, first phase) —
// then, on a mesh deeper than one layer, a reduce-scatter along the fiber so
// the result lands in the same n/(q·d) x f/q layout as X (§IV-D-1).
//
// Stage k+1's panels are issued asynchronously before stage k's local SpMM
// runs, double-buffering the in-flight panels (the fabric's receive arena
// holds the incoming buffers until their SpMM has read them, ws the
// wrapping headers), so on the timeline a stage costs max(comm, comp).
func (r *meshRank) summaSpMM(a *sparseOperand, x *dense.Matrix) *dense.Matrix {
	// On a deep mesh out is the layer's pre-reduction sum: the
	// P^{1/3}-replicated intermediate of §IV-D-1.
	out := r.ws.Get(r.vBlk.Size(r.pi), x.Cols)
	aReq, xReq := r.summaStage(0, a, x)
	for k := 0; k < r.mesh.C; k++ {
		if aReq != nil {
			r.holdPanel(a, k, aReq.Wait())
		}
		aK := a.held[k]
		got := xReq.Wait()
		xK := wrapMat(r.ws, got)
		if k+1 < r.mesh.C {
			aReq, xReq = r.summaStage(k+1, a, x)
		}
		r.recordMem(matWords(out) + matWords(xK))
		sparse.SpMMAdd(out, aK, xK)
		r.comm.ChargeTime(comm.CatSpMM, r.mach.SpMMTime(int64(aK.NNZ()), aK.Rows, xK.Cols))
		r.ws.Release(xK)
		if k != r.pi { // stage pi's payload is x itself
			r.comm.Release(got)
		}
	}
	if r.mesh.D == 1 {
		return out
	}
	// Fiber reduce-scatter: partial sums for T(row block pi) are summed
	// across layers and scattered so layer k keeps row sub-slice (pi, k).
	for k := range r.rsCounts {
		lo, hi := r.subRange(r.pi, k)
		r.rsCounts[k] = (hi - lo) * x.Cols
	}
	myLo, myHi := r.subRange(r.pi, r.pk)
	mine := r.ws.Wrap(myHi-myLo, x.Cols, r.fiberGroup.ReduceScatter(out.Data, r.rsCounts, comm.CatDenseComm))
	r.ws.Release(out)
	return mine
}

// summaStage issues stage k's panel broadcasts: the dense panel
// X(sub-slice (k, pk), fcols pj) along the process column and, unless the
// rank already holds it (aReq is then nil), the sparse panel
// op(A)(row pi, sub-slice (k, pk)) along the process row — every member of
// a process row holds the same stages, so they agree on which broadcasts
// run. The root serializes its block for that one broadcast; the fabric
// copies outbound payloads, so nothing keeps the serialized form. The dims
// scratch is only written when this rank roots the dense panel (k == pi),
// which happens for exactly one stage, so a single scratch survives two
// stages being in flight.
func (r *meshRank) summaStage(k int, a *sparseOperand, x *dense.Matrix) (aReq, xReq *comm.Request) {
	if a.held[k] == nil {
		var aIn comm.Payload
		if k == r.pj {
			aIn = csrPayload(a.blk)
		}
		aReq = r.rowGroup.IBroadcast(k, aIn, comm.CatSparseComm)
	}
	var xIn comm.Payload
	if k == r.pi {
		xIn = matPayloadInto(x, r.dims)
	}
	xReq = r.colGroup.IBroadcast(k, xIn, comm.CatDenseComm)
	return aReq, xReq
}

// holdPanel keeps stage k's sparse row panel for the rest of the run: the
// rank's own block where it was the root, otherwise the received payload
// itself, which Keep takes out of the fabric's arena without a copy —
// counted as resident from here on.
func (r *meshRank) holdPanel(a *sparseOperand, k int, got comm.Payload) {
	if k == r.pj {
		a.held[k] = a.blk
		return
	}
	r.comm.Keep(got)
	a.held[k] = payloadCSR(got)
	r.memBase += csrWords(a.held[k])
}

// partialSumma computes my block of X·W for the replicated W in form f: X
// blocks broadcast along process rows within each mesh layer (Algorithm 2,
// second phase). The k-th stage multiplies X's k-th column block against
// W[rowBlk(k), colBlk(pj)] — over the block's nonzeros when f is
// sparseLeft — and with fusedReLU the last stage's GEMM applies the ReLU in
// its epilogue, after each element's sum is complete. Stage k+1's
// broadcast is in flight while stage k's GEMM runs.
func (r *meshRank) partialSumma(xBlk *dense.Matrix, w *dense.Matrix, f productForm) *dense.Matrix {
	rowsB := r.fBlk(w.Rows) // W rows = X's feature dimension, split by column
	colsB := r.fBlk(w.Cols)
	out := r.ws.Get(xBlk.Rows, colsB.Size(r.pj))
	xReq := r.partialStage(0, xBlk)
	for k := 0; k < r.mesh.C; k++ {
		xK := wrapMat(r.ws, xReq.Wait())
		if k+1 < r.mesh.C {
			xReq = r.partialStage(k+1, xBlk)
		}
		wSlice := r.ws.GetUninit(rowsB.Size(k), colsB.Size(r.pj))
		w.SubMatrixInto(wSlice, rowsB.Lo(k), rowsB.Hi(k), colsB.Lo(r.pj), colsB.Hi(r.pj))
		stage := f
		if f == fusedReLU && k < r.mesh.C-1 {
			stage = plainGEMM
		}
		weightMul(out, xK, wSlice, stage, true)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(xK.Rows, xK.Cols, wSlice.Cols))
		r.ws.Release(wSlice)
		r.ws.Release(xK)
	}
	return out
}

// partialStage issues stage k's panel broadcast along the process row. The
// dims scratch is safe for the same single-root reason as in summaStage
// (only stage pj writes it).
func (r *meshRank) partialStage(k int, xBlk *dense.Matrix) *comm.Request {
	var xIn comm.Payload
	if k == r.pj {
		xIn = matPayloadInto(xBlk, r.dims)
	}
	return r.rowGroup.IBroadcast(k, xIn, comm.CatDenseComm)
}

// gatherRows all-gathers the column blocks of a mesh-partitioned matrix
// along my process row, returning my full rows (n/(q·d) x f, f the sum of
// the blocks' widths).
func (r *meshRank) gatherRows(x *dense.Matrix) *dense.Matrix {
	parts := r.rowGroup.AllGather(matPayloadInto(x, r.dims), comm.CatDenseComm)
	f := 0
	for _, part := range parts {
		f += part.Ints[1]
	}
	out := r.ws.GetUninit(x.Rows, f)
	c0 := 0
	for j, part := range parts {
		block := wrapMat(r.ws, part)
		out.SetSubMatrix(0, c0, block)
		r.ws.Release(block)
		c0 += part.Ints[1]
		if j != r.pj { // my own part is x itself
			r.comm.Release(part)
		}
	}
	r.recordMem(matWords(out))
	return out
}

// fullRows returns the full rows of block x by a gather, remembered so the
// second of the weightGrad/inputGrad pair reuses it.
func (r *meshRank) fullRows(x *dense.Matrix) *dense.Matrix {
	if r.rowsOf != x {
		r.rowsOf, r.rows = x, r.gatherRows(x)
	}
	return r.rows
}

// toRows moves x, my block of an output-layer operand (the rows of
// sub-slice (pi, pk), column block pj of its f columns), into the output
// layer's row layout — my rows outBlk(pj), all f columns — by one all-to-all
// along the process row. Member j's part is x's rows outBlk(j), contiguous
// in x, so it is sent as it is; the parts received are the column blocks of
// my rows.
func (r *meshRank) toRows(x *dense.Matrix, f int) *dense.Matrix {
	for j := range r.parts {
		r.parts[j] = comm.Payload{Floats: x.Data[r.outBlk.Lo(j)*x.Cols : r.outBlk.Hi(j)*x.Cols]}
	}
	got := r.rowGroup.AllToAll(r.parts, comm.CatDenseComm)
	fB := r.fBlk(f)
	out := r.ws.GetUninit(r.outBlk.Size(r.pj), f)
	for j, part := range got {
		block := r.ws.Wrap(out.Rows, fB.Size(j), part.Floats)
		out.SetSubMatrix(0, fB.Lo(j), block)
		r.ws.Release(block)
		if j != r.pj { // my own part is a row range of x
			r.comm.Release(part)
		}
	}
	r.recordMem(matWords(out))
	return out
}

// fromRows is toRows' inverse: x holds my output-layer rows with all their
// columns, and the result is my block (sub-slice (pi, pk), column block
// pj). Member j's part is column block j of my rows; the parts received
// are row ranges of my block, stacked in member order. My own part comes
// back in place, so the parts are released only once out is filled.
func (r *meshRank) fromRows(x *dense.Matrix) *dense.Matrix {
	fB := r.fBlk(x.Cols)
	for j := range r.parts {
		part := r.ws.GetUninit(x.Rows, fB.Size(j))
		x.SubMatrixInto(part, 0, x.Rows, fB.Lo(j), fB.Hi(j))
		r.parts[j], r.sent[j] = comm.Payload{Floats: part.Data}, part
	}
	got := r.rowGroup.AllToAll(r.parts, comm.CatDenseComm)
	out := r.ws.GetUninit(r.outBlk.Items(), fB.Size(r.pj))
	for j, part := range got {
		copy(out.Data[r.outBlk.Lo(j)*out.Cols:r.outBlk.Hi(j)*out.Cols], part.Floats)
		if j != r.pj {
			r.comm.Release(part)
		}
	}
	for j, part := range r.sent {
		r.ws.Release(part)
		r.sent[j] = nil
	}
	return out
}

func (r *meshRank) rank() int { return r.comm.Rank() }

func (r *meshRank) input() *dense.Matrix { return r.h0 }

// forwardAggregate computes Aᵀ X via SUMMA SpMM. The call at l = 1 is the
// first of a run, so it is the one that gathers the Aᵀ row panels.
func (r *meshRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	t := r.summaSpMM(r.at, x)
	if l == 1 {
		// T¹ outlives endEpoch: the engine reuses it every epoch — the block
		// in weightGrad, its full rows in multiplyWeight. On a deep mesh the
		// block arrives in the reduce-scatter's payload, so Keep copies it
		// out and the payload goes back to the fabric.
		kept := r.ws.Keep(t)
		r.comm.Release(comm.Payload{Floats: t.Data})
		t = kept
		r.t1Rows = r.ws.Keep(r.gatherRows(t))
		r.memBase += matWords(t) + matWords(r.t1Rows)
	}
	return t
}

// multiplyWeight computes X W in form f (with fusedReLU relu(X W): ReLU is
// elementwise, so each block applies it alone) via the partial SUMMA —
// except Z¹ = T¹ W¹, whose row panels forwardAggregate gathered for the
// whole run: a local GEMM against W¹[:, colBlk(pj)]. An aggregate-first
// output layer instead takes my output rows of T^L — out of t1Rows at
// L = 1, by toRows otherwise — and multiplies them by the whole W^L, so
// Z^L arrives in the row layout.
func (r *meshRank) multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix {
	if r.rowsLayer(l, true) {
		if l == 1 {
			lo, hi := r.outBlk.Lo(r.pj), r.outBlk.Hi(r.pj)
			r.tRows = r.ws.Wrap(hi-lo, w.Rows, r.t1Rows.Data[lo*w.Rows:hi*w.Rows])
		} else {
			r.tRows = r.toRows(x, w.Rows)
		}
		z := r.ws.GetUninit(r.tRows.Rows, w.Cols)
		weightMul(z, r.tRows, w, f, false)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(z.Rows, w.Rows, z.Cols))
		return z
	}
	if l > 1 {
		return r.partialSumma(x, w, f)
	}
	colsB := r.fBlk(w.Cols)
	wCols := r.ws.GetUninit(w.Rows, colsB.Size(r.pj))
	w.SubMatrixInto(wCols, 0, w.Rows, colsB.Lo(r.pj), colsB.Hi(r.pj))
	z := r.ws.GetUninit(r.t1Rows.Rows, wCols.Cols)
	weightMul(z, r.t1Rows, wCols, f, false)
	r.ws.Release(wCols)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(z.Rows, w.Rows, z.Cols))
	return z
}

// activationForward applies σ locally: hidden activations are
// element-wise, and the output layer's rows are whole — a multiply-first
// output layer's Z^L crosses into that layout here.
func (r *meshRank) activationForward(act dense.Activation, z *dense.Matrix, l int) *dense.Matrix {
	if !r.rowsLayer(l, false) {
		h := r.ws.GetUninit(z.Rows, z.Cols)
		act.Forward(h, z)
		return h
	}
	zRows := r.toRows(z, r.cfg.Widths[l])
	h := r.ws.GetUninit(zRows.Rows, zRows.Cols)
	act.Forward(h, zRows)
	r.ws.Release(zRows)
	return h
}

// lossGrad computes the loss contribution and ∂L/∂H^L of my output rows.
func (r *meshRank) lossGrad(hOut *dense.Matrix) (float64, *dense.Matrix) {
	grad := r.ws.Get(hOut.Rows, hOut.Cols)
	return nn.NLLLossMaskedInto(grad, hOut, r.labels, r.mask, r.outLo, r.norm), grad
}

// activationBackward computes G = act'(∂L/∂H) from H locally, on the output
// layer's rows at l = L; a multiply-first output layer's G^L crosses back to
// the block layout here, for backwardAggregate.
func (r *meshRank) activationBackward(act dense.Activation, dH, h *dense.Matrix, l int) *dense.Matrix {
	g := r.ws.GetUninit(h.Rows, h.Cols)
	act.Backward(g, dH, h)
	if r.rowsLayer(l, false) {
		gRows := g
		g = r.fromRows(gRows)
		r.ws.Release(gRows)
	}
	return g
}

// backwardAggregate computes A·X via SUMMA SpMM over the A blocks. On a
// directed graph the first call of a run gathers the A row panels and starts
// by building the A blocks they are broadcast from (the transpose exchange);
// when A = Aᵀ both are the forward pass's. A network of one layer never gets
// here and never transposes.
func (r *meshRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	if r.a.blk == nil {
		r.transposeExchange()
	}
	return r.summaSpMM(r.a, x)
}

// weightGrad computes Y^l = hPrevᵀ·g: local partial from g's full rows,
// all-reduce over the plane of ranks sharing my feature column (summing
// over grid rows and layers — down the process column at depth 1), then
// all-gather along the process row to replicate Y (dense SUMMA +
// all-gather, §IV-C-4, §IV-D-4). (H^{l-1}, A G^l) and (T^l, G^l) are laid
// out alike, so one product serves both orders. An aggregate-first output
// layer holds its rows of both T^L (tRows, in place of hPrev) and G^L
// whole, and the rows are disjoint across the world: Y^L is one world
// all-reduce of the local products.
func (r *meshRank) weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix {
	if r.rowsLayer(l, true) {
		partial := r.ws.GetUninit(r.tRows.Cols, g.Cols)
		weightProduct(r.ws, partial, r.tRows, g, f, false)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(partial.Rows, g.Rows, partial.Cols))
		r.ws.Release(r.tRows)
		r.tRows = nil
		y := r.ws.Wrap(partial.Rows, partial.Cols, r.comm.World().AllReduce(partial.Data, comm.CatDenseComm))
		r.ws.Release(partial)
		return y
	}
	gRow := r.fullRows(g)
	partial := r.ws.GetUninit(hPrev.Cols, gRow.Cols)
	weightProduct(r.ws, partial, hPrev, gRow, f, false)
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(hPrev.Cols, hPrev.Rows, gRow.Cols))
	planeSum := r.planeGroup.AllReduce(partial.Data, comm.CatDenseComm)
	r.dims[0], r.dims[1] = partial.Rows, partial.Cols
	r.ws.Release(partial)
	yParts := r.rowGroup.AllGather(
		comm.Payload{Floats: planeSum, Ints: r.dims[:2]},
		comm.CatDenseComm)
	fPB := r.fBlk(r.cfg.Widths[l-1]) // W^l's rows: the same in either product order
	dW := r.ws.GetUninit(fPB.Items(), gRow.Cols)
	for j, part := range yParts {
		block := wrapMat(r.ws, part)
		dW.SetSubMatrix(fPB.Lo(j), 0, block)
		r.ws.Release(block)
		r.comm.Release(part) // my own part is planeSum, the all-reduce's result
	}
	return dW
}

// inputGrad computes my block of g·(W^l)ᵀ from g's full rows — already
// gathered by weightGrad — with no communication, masked in the GEMM's
// epilogue when asked: the result and the H^{l-1} block share their layout.
// An aggregate-first output layer multiplies its G^L rows by the whole
// W^L and sends ∂L/∂T^L back to the block layout (it is never masked).
func (r *meshRank) inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix {
	if r.rowsLayer(l, true) {
		dT := r.ws.GetUninit(g.Rows, w.Rows)
		dense.MulT(dT, g, w)
		r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(g.Rows, w.Cols, w.Rows))
		out := r.fromRows(dT)
		r.ws.Release(dT)
		return out
	}
	gRow := r.fullRows(g)
	fPB := r.fBlk(w.Rows)
	wRowBlk := r.ws.GetUninit(fPB.Size(r.pj), w.Cols)
	w.SubMatrixInto(wRowBlk, fPB.Lo(r.pj), fPB.Hi(r.pj), 0, w.Cols)
	dH := r.ws.GetUninit(gRow.Rows, wRowBlk.Rows)
	if mask != nil {
		dense.MulTReLUMask(dH, gRow, wRowBlk, mask)
	} else {
		dense.MulT(dH, gRow, wRowBlk)
	}
	r.comm.ChargeTime(comm.CatMisc, r.mach.GEMMTime(gRow.Rows, w.Cols, wRowBlk.Rows))
	r.ws.Release(wRowBlk)
	return dH
}

// release hands m back to the workspace, and with it the full rows gathered
// from it: m was the weightGrad/inputGrad pair's operand, and its header
// may key a later block's gather once the workspace hands it out again.
// When m wraps a fabric payload (the 3D mesh's reduce-scatter result), the
// payload goes back to the fabric.
func (r *meshRank) release(m *dense.Matrix) {
	if m == nil {
		return
	}
	if m == r.rowsOf {
		r.ws.Release(r.rows)
		r.rowsOf, r.rows = nil, nil
	}
	r.comm.Release(comm.Payload{Floats: m.Data})
	r.ws.Release(m)
}

// endEpoch charges the per-epoch overhead and releases every epoch-scoped
// buffer: the rank's workspace, then (collectively) the fabric's payload
// pool. A rank whose epoch left its plan (comm.Ledger.Drift) fails the run.
func (r *meshRank) endEpoch() {
	r.comm.ChargeTime(comm.CatMisc, r.mach.MiscOverhead)
	r.ws.Reset()
	r.rowsOf, r.rows, r.tRows = nil, nil, nil
	r.comm.EpochDone()
	if err := r.comm.Ledger().Drift(); err != nil {
		panic(err)
	}
}

// correctCounts counts my output rows: every rank holds its own.
func (r *meshRank) correctCounts(hOut *dense.Matrix, masks ...[]bool) []float64 {
	counts := countBuf(r.cnt, len(masks))
	argmaxCorrectInto(counts, hOut, r.labels, r.outLo, masks)
	return counts
}

func (r *meshRank) reduce(vals []float64) []float64 {
	return r.comm.World().AllReduce(vals, comm.CatMisc)
}

// gatherOutput assembles the global output on rank 0 from every rank's
// output rows.
func (r *meshRank) gatherOutput(hOut *dense.Matrix) *dense.Matrix {
	parts := r.comm.World().Gather(0, matPayload(hOut), comm.CatMisc)
	if r.comm.Rank() != 0 {
		return nil
	}
	full := dense.New(r.n, hOut.Cols)
	for rank, part := range parts {
		lo, _ := r.outRows(r.mesh.Coords(rank))
		full.SetSubMatrix(lo, 0, payloadMat(part))
	}
	return full
}
