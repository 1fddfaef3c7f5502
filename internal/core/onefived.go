package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/nn"
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
// all-reduce (≈ ncf/P words) completes each product. At c = 1 that is the 1D
// forward product, collective for collective. The paper analyzes but does
// not implement 1.5D, arguing d = O(f) makes the memory cost hard to
// justify (§IV-B); this implementation lets the repo quantify that
// trade-off. A must be symmetric, as for the 3D trainer; Train rejects any
// other.
type OneFiveD struct {
	dist
	RowOptions
	c int
}

// NewOneFiveD returns a 1.5D trainer over p ranks with replication factor
// c; p must be divisible by c.
func NewOneFiveD(p, c int, mach costmodel.Machine) *OneFiveD {
	t := &OneFiveD{dist: newDist("1.5d", p, mach), c: c}
	t.decompose = t.newRanks
	return t
}

// ReplicationFactor returns c.
func (t *OneFiveD) ReplicationFactor() int { return t.c }

// Blocks implements RowTrainer: one row block per team.
func (t *OneFiveD) Blocks() int { return t.p / t.c }

// newRanks is the 1.5D decomposition (dist.decompose).
func (t *OneFiveD) newRanks(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error) {
	if t.c < 1 || t.p%t.c != 0 {
		return nil, fmt.Errorf("core: 1.5d trainer needs c ≥ 1 dividing P, got P=%d c=%d", t.p, t.c)
	}
	if err := requireSymmetric(p.A, t.name); err != nil {
		return nil, err
	}
	teams := t.p / t.c
	n := p.A.Rows
	if teams > n {
		return nil, fmt.Errorf("core: 1.5d trainer with %d teams needs at least %d vertices, got %d", teams, teams, n)
	}
	blk, err := layout1DFor(t.Layout, n, teams)
	if err != nil {
		return nil, err
	}
	return func(c *comm.Comm) layerOps {
		r := &oneFiveDRank{rowRank: rowRank{
			comm: c, mach: t.mach, cfg: cfg, blk: blk, c: t.c, halo: t.Halo, overlap: t.Overlap,
			labels: p.Labels, mask: p.TrainMask, norm: p.lossNormalizer(), n: n,
		}}
		r.setup(p.A, p.Features)
		return r
	}, nil
}

// oneFiveDRank holds one rank's state during 1.5D training: the shared
// block-row rank with the stages s ≡ layer (mod c) over the layer group
// (group index = team index), plus the team all-reduce that completes and
// re-replicates each product.
type oneFiveDRank struct {
	rowRank
	teamGroup *comm.Group // the c replicas of my row block
}

func (r *oneFiveDRank) setup(a *sparse.CSR, features *dense.Matrix) {
	rank, teams := r.comm.Rank(), r.blk.Blocks()
	team, layer := rank/r.c, rank%r.c
	teamRanks := make([]int, r.c)
	for k := range teamRanks {
		teamRanks[k] = team*r.c + k
	}
	r.teamGroup = r.comm.NewGroup(teamRanks)
	layerRanks := make([]int, teams) // one member per team, all at my layer index
	for j := range layerRanks {
		layerRanks[j] = j*r.c + layer
	}
	r.group, r.own = r.comm.NewGroup(layerRanks), team
	r.lo, r.hi = r.blk.Lo(team), r.blk.Hi(team)

	// A is symmetric, so Aᵀ row blocks come straight from A. Member k of
	// team j keeps only the column blocks s ≡ k (mod c). In halo mode each
	// remote stage block is compacted onto its column support; the own
	// team's block multiplies the local x directly, and non-stage teams
	// contribute empty need lists, so nothing is fetched from either.
	r.blocks = make([]*sparse.CSR, teams)
	if r.halo {
		r.need = make([][]int, teams)
	}
	// h0 is the c-fold replicated dense block — the §IV-B memory overhead —
	// while the sparse share is only the stage blocks.
	var sparseWords int64
	for s := layer; s < teams; s += r.c {
		r.stages = append(r.stages, s)
		r.blocks[s] = a.ExtractBlock(r.lo, r.hi, r.blk.Lo(s), r.blk.Hi(s))
		if r.halo && s != team {
			r.need[s], r.blocks[s] = sparse.CompactCols(r.blocks[s])
		}
		sparseWords += csrWords(r.blocks[s])
	}
	r.finishSetup(features, sparseWords)
}

// blockMul computes my team's row block of Aᵀ·X, where x is my team's
// (replicated) row block of X: each member sums its s ≡ layer stages with
// the shared stage product, then an intra-team all-reduce completes and
// re-replicates the sum. One replica has nothing to all-reduce — the
// paper's degenerate case, 1D.
func (r *oneFiveDRank) blockMul(x *dense.Matrix) *dense.Matrix {
	partial := r.stageProduct(x)
	if r.c == 1 {
		return partial
	}
	return r.ws.Wrap(partial.Rows, x.Cols,
		r.teamGroup.AllReduce(partial.Data, comm.CatDenseComm))
}

func (r *oneFiveDRank) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.keepInput(r.blockMul(x), l)
}

// backwardAggregate: A·X = Aᵀ·X by symmetry — same pattern as forward, no
// outer product and no transpose needed.
func (r *oneFiveDRank) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	return r.blockMul(x)
}
