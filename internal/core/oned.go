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
	dist
	RowOptions
}

// NewOneD returns a 1D trainer over p simulated ranks.
func NewOneD(p int, mach costmodel.Machine) *OneD {
	t := &OneD{dist: newDist("1d", p, mach)}
	t.decompose = t.newRanks
	return t
}

// Blocks implements RowTrainer: one row block per rank.
func (t *OneD) Blocks() int { return t.p }

// newRanks is the 1D decomposition (dist.decompose).
func (t *OneD) newRanks(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error) {
	n := p.A.Rows
	if t.p > n {
		return nil, fmt.Errorf("core: 1d trainer with %d ranks needs at least %d vertices, got %d", t.p, t.p, n)
	}
	at := p.A.Transpose() // read-only global view; ranks extract blocks
	blk, err := layout1DFor(t.Layout, n, t.p)
	if err != nil {
		return nil, err
	}
	return func(c *comm.Comm) layerOps {
		r := &oneDRank{rowRank: rowRank{
			comm: c, mach: t.mach, cfg: cfg, blk: blk, c: 1, halo: t.Halo, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
		}}
		r.setup(at, p.Features)
		return r
	}, nil
}

// oneDRank holds one rank's state during 1D training: the shared block-row
// rank with every block a stage over the world group, plus the 1D backward
// outer product.
type oneDRank struct {
	rowRank

	atLocal  *sparse.CSR           // Aᵀ(my rows, :) for the backward outer product
	atPlan   *sparse.TransposePlan // gather plan for (Aᵀ(my rows, :))ᵀ·G — no per-call searches
	rsCounts []int                 // reduce-scatter counts, refilled per layer
}

func (r *oneDRank) setup(at *sparse.CSR, features *dense.Matrix) {
	me, size := r.comm.Rank(), r.comm.Size()
	r.group, r.own = r.comm.World(), me
	r.lo, r.hi = r.blk.Lo(me), r.blk.Hi(me)
	r.atLocal = at.ExtractBlock(r.lo, r.hi, 0, r.n)
	r.atPlan = sparse.NewTransposePlan(r.atLocal)
	r.stages = make([]int, size)
	for j := range r.stages {
		r.stages[j] = j
	}
	if r.halo {
		// The diagonal block (skip = me) stays uncompacted: it multiplies
		// the local x directly, so no fetch list and no row gather.
		plan := sparse.BuildHaloPlan(r.atLocal, partition.Offsets1D(r.blk), me)
		r.blocks, r.need = plan.Blocks, plan.Need
	} else {
		r.blocks = make([]*sparse.CSR, size)
		for j := range r.blocks {
			r.blocks[j] = r.atLocal.ExtractBlock(0, r.hi-r.lo, r.blk.Lo(j), r.blk.Hi(j))
		}
	}
	r.rsCounts = make([]int, size)
	r.finishSetup(features, csrWords(r.atLocal))
}

// forwardAggregate computes (Aᵀ·X)_i = Σ_j Aᵀ_ij X_j: the shared stage
// product over every block.
func (r *oneDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.keepInput(r.stageProduct(x), l)
}

// backwardAggregate is the large 1D outer product (§IV-A-3): each rank forms
// the low-rank n x f product A(:, my rows)·X_i = (Aᵀ_i)ᵀ X_i over the
// precomputed transpose plan, then the partial sums are reduce-scattered
// back to block rows. The outer product materializes an n x f dense
// intermediate per rank — the memory cost §IV-A-3 discusses — at the
// operand's width f = min(f^{l-1}, f^l). It transposes explicitly, so A
// need not be symmetric.
func (r *oneDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
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
		r.comm.World().ReduceScatter(full.Data, r.rsCounts, comm.CatDenseComm))
}
