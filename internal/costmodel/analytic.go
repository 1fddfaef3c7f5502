package costmodel

import (
	"fmt"
	"math"
)

// Workload carries the aggregate quantities every §IV cost formula depends
// on: vertex count n, nonzero count nnz(A), average feature length f, and
// layer count L.
type Workload struct {
	N      int
	NNZ    int64
	F      float64
	Layers int
}

// AvgDegree returns nnz/n, the paper's d.
func (w Workload) AvgDegree() float64 {
	if w.N == 0 {
		return 0
	}
	return float64(w.NNZ) / float64(w.N)
}

// The per-epoch bounds below are the paper's, term for term: L layers, each
// charged a forward aggregation Aᵀ·H^{l-1} at width f^{l-1} and a backward
// aggregation A·G^l at width f^l — the uncached, fixed-order form, what an
// epoch costs when nothing is kept from the one before and every layer
// aggregates before it multiplies (a run's first epoch comes closest: it
// pays the input layer's forward aggregation). The training engine
// (core/engine.go) departs from it in two exact ways. H⁰ is the input, so
// T¹ = Aᵀ·H⁰ is aggregated once per run and the layer-1 weight gradient is
// (T¹)ᵀ·G¹ = (H⁰)ᵀ·A·G¹ with no backward aggregation; and because the
// products associate, every other layer aggregates on its narrower side —
// Aᵀ·(H^{l-1}·W^l) and A·G^l at width f^l when f^l < f^{l-1},
// Aᵀ·H^{l-1} and A·(G^l·(W^l)ᵀ) at width f^{l-1} otherwise. A steady-state
// epoch therefore carries the aggregation terms — the sparse and dense
// panels, the edgecut·f fetches, 3D's fiber reduce-scatter — of L − 1 layers,
// each with f = min(f^{l-1}, f^l) in both directions, and the weight-sized
// terms (f² all-reduces, and in 2D/3D the hidden layers' X·W panels and the
// row gathers; the T¹ row panels are gathered once per run) of all L. A
// third departure is the mesh trainer's alone: A is static, so a 2D/3D rank
// keeps the sparse row panels the first SUMMA of each direction delivers
// and transposes at most once — the nnz terms of TwoD and ThreeD are
// charged once per run, in the same categories at the same α–β cost, and a
// steady-state epoch carries none of them. The transpose the mesh runs only
// when A ≠ Aᵀ; on a symmetric A backward reads the forward panels, so a run
// pays one direction's nnz terms and no transpose. TwoD keeps Algorithm 2's
// transpose term all the same: the analytic column is the paper's
// accounting, whatever A is. A fourth is the
// mesh's too: its output layer runs row-split inside each process row, so
// the log-softmax needs no row gather. The functions
// keep the published form, which with one average width f cannot see the
// second saving at all; callers comparing them with a measured steady-state
// epoch subtract one layer's aggregation and, for 2D/3D, the nnz terms.

// CommCost is a closed-form per-epoch communication bound: Msgs α-units and
// Words β-units.
type CommCost struct {
	Msgs  float64
	Words float64
}

// Time evaluates the bound on machine m.
func (c CommCost) Time(m Machine) float64 {
	return c.Msgs*m.Alpha + c.Words*m.Beta
}

// Add returns the component-wise sum.
func (c CommCost) Add(o CommCost) CommCost {
	return CommCost{Msgs: c.Msgs + o.Msgs, Words: c.Words + o.Words}
}

func (c CommCost) String() string {
	return fmt.Sprintf("{msgs: %.3g, words: %.4g}", c.Msgs, c.Words)
}

// OneD returns the per-epoch communication bound of the general 1D
// block-row algorithm (§IV-A-5, Eq. 1), whose backward aggregation is the
// outer product of §IV-A-3 with its n·f reduce-scatter:
//
//	T = L( α·3 lg P + β( edgecut·f + n·f + f² ) )
//
// edgecut is edgecut_P(A), the per-process maximum number of dense-matrix
// rows that must be fetched; random partitioning gives ≈ n(P-1)/P. It is
// the paper's bound for a 1D algorithm that holds Aᵀ alone. The trainer in
// internal/core holds a block row of A beside its block row of Aᵀ (one and
// the same on an undirected graph) and runs the block-row multiply in both
// directions, so what it implements is OneDSymmetric (Eq. 2) — for any A.
func OneD(w Workload, p int, edgecut float64) CommCost {
	L := float64(w.Layers)
	return CommCost{
		Msgs:  L * 3 * lgf(p),
		Words: L * (edgecut*w.F + float64(w.N)*w.F + w.F*w.F),
	}
}

// OneDRandomEdgecut returns the edgecut of a random (block) vertex
// partition, n(P-1)/P (§IV-A-1: "a non-adversarial edgecut is never higher
// than n(P-1)/P, which can be achieved by a random partitioning").
func OneDRandomEdgecut(n, p int) float64 {
	if p == 0 {
		return 0
	}
	return float64(n) * float64(p-1) / float64(p)
}

// OneDHaloDenseWords returns the exact dense-comm word count one rank of
// the sparsity-aware (halo-exchange) 1D trainer accrues over a full
// training run of `epochs` epochs plus the final inference forward pass.
// widths are the layer widths f⁰..f^L, p the rank count, and fwdRows and
// bwdRows the rank's rᵢ — the number of distinct remote rows it fetches per
// product (§IV-A-1; partition.Edgecut's PerPartRecvRows) — for the forward
// product over its block row of Aᵀ and the backward one over its block row
// of A. On an undirected graph the two are the same number; on a directed
// one bwdRows is the rᵢ of the graph and fwdRows that of its reverse.
// Plugging in max_i rᵢ = edgecut_P(A) gives the per-rank maximum; summing
// over per-rank values gives the total volume.
//
// It is the implementable, exact counterpart of OneDSymmetric's per-epoch
// bound L·(2·edgecut·f + f²), in the steady-state form described above
// CommCost. Once per run, the input layer's halo exchange fetches
// fwdRows·f⁰. Per epoch, every layer l ≥ 2 aggregates at width
// m_l = min(f^{l-1}, f^l) in both directions — its forward fetch charges
// fwdRows·m_l, its backward fetch bwdRows·m_l, each replacing a broadcast
// sweep's ≈ n·m_l — and every layer, the first included, charges the weight
// all-reduce's 2·f^{l-1}·f^l: reduce plus broadcast, the constant-factor
// rounding noted on Group.AllReduce. The final forward pass fetches for the
// layers l ≥ 2 once more. A world of one rank has no network and moves
// nothing.
func OneDHaloDenseWords(widths []int, p, fwdRows, bwdRows, epochs int) int64 {
	if p <= 1 {
		return 0
	}
	var fwd, bwd int64
	for l := 1; l < len(widths); l++ {
		if l > 1 {
			m := int64(min(widths[l-1], widths[l]))
			fwd += int64(fwdRows) * m
			bwd += int64(bwdRows) * m
		}
		bwd += 2 * int64(widths[l-1]) * int64(widths[l])
	}
	return int64(fwdRows)*int64(widths[0]) + int64(epochs)*(fwd+bwd) + fwd
}

// OneDSymmetric returns the bound for the symmetric case (§IV-A-6, Eq. 2)
// where A can stand in for Aᵀ, trading the big outer product for a second
// block-row multiply:
//
//	T = L( α·3 lg P + β( 2·edgecut·f + f² ) )
//
// This is the form the 1D trainer implements (OneDHaloDenseWords is its
// exact count): its backward product fetches over A's row blocks as its
// forward one does over Aᵀ's, with edgecut the larger of the two
// directions' on a directed graph.
func OneDSymmetric(w Workload, p int, edgecut float64) CommCost {
	L := float64(w.Layers)
	return CommCost{
		Msgs:  L * 3 * lgf(p),
		Words: L * (2*edgecut*w.F + w.F*w.F),
	}
}

// TwoD returns the per-epoch bound of the 2D SUMMA algorithm on a √P x √P
// grid (§IV-C-5):
//
//	T = L( α(5√P + 3 lg P) + β( 8nf/√P + 2nnz/√P + f² ) )
func TwoD(w Workload, p int) CommCost {
	L := float64(w.Layers)
	sq := math.Sqrt(float64(p))
	return CommCost{
		Msgs:  L * (5*sq + 3*lgf(p)),
		Words: L * (8*float64(w.N)*w.F/sq + 2*float64(w.NNZ)/sq + w.F*w.F),
	}
}

// ThreeD returns the per-epoch bound of the 3D Split-3D-SpMM algorithm on a
// ∛P x ∛P x ∛P mesh (§IV-D-5):
//
//	T ≈ L( α·4P^{1/3} + β( 2nnz/P^{2/3} + 12nf/P^{2/3} ) )
func ThreeD(w Workload, p int) CommCost {
	L := float64(w.Layers)
	cbrt := math.Cbrt(float64(p))
	p23 := cbrt * cbrt
	return CommCost{
		Msgs:  L * 4 * cbrt,
		Words: L * (2*float64(w.NNZ)/p23 + 12*float64(w.N)*w.F/p23),
	}
}

// ThreeDReplicationFactor returns the 3D algorithm's intermediate-stage
// memory replication factor P^{1/3} (§IV-D-1).
func ThreeDReplicationFactor(p int) float64 {
	return math.Cbrt(float64(p))
}

// OneFiveD returns the per-epoch bound for a 1.5D block-row algorithm with
// replication factor c (§IV-B, following Koanantakool et al.): the dense
// matrix is replicated across c layers, cutting its movement by a factor of
// c at a c-fold memory cost; the sparse matrix shifts within teams of P/c.
//
//	T = L( α·(P/c² + lg c) + β( nnz·c/P + 2nf/c + f² ) )
//
// At c = 1 this degenerates to the 1D bound with a random edgecut; the
// paper argues (§IV-B) the added memory is rarely worthwhile for GNNs since
// d = O(f) makes the two input matrices comparable in size.
func OneFiveD(w Workload, p, c int) CommCost {
	if c < 1 {
		c = 1
	}
	L := float64(w.Layers)
	return CommCost{
		Msgs:  L * (float64(p)/float64(c*c) + lgf(c)),
		Words: L * (float64(w.NNZ)*float64(c)/float64(p) + 2*float64(w.N)*w.F/float64(c) + w.F*w.F),
	}
}

// TwoDOverOneDSteadyWordRatio is the paper's ratio of the words the 2D
// algorithm moves to the 1D ones — 5/√P under its simplifying assumptions
// (§IV-C-5: random partitioning so edgecut ≈ n, nnz ≈ nf, f ≪ n), a
// crossover at √P ≥ 5 (§VI-d) — for a steady-state epoch of an L-layer
// network, under the same assumptions (one width f, so the per-layer
// product order changes no aggregation's width). Per layer the
// paper has 2nf words for 1D and 10nf/√P for 2D, of which each of the two
// SUMMA SpMMs is 2nf/√P: nf/√P of dense panels and nnz/√P ≈ nf/√P of sparse
// ones. Aggregating the input layer once per run takes a whole layer off
// 1D; off 2D it takes the layer's two SUMMA SpMMs, 4nf/√P, and — the T¹ row
// panels being gathered once per run — the T¹·W¹ panels, nf/√P; the gather
// of G¹ for Y¹ and the activation's row gathers recur every epoch. That
// leaves (10L−5)nf/√P. The mesh also holds its sparse row panels after the
// first SUMMA of each direction (and transposes at most once), so each of the
// 2(L−1) SUMMA SpMMs left in the epoch moves its dense panels alone, nf/√P
// instead of 2nf/√P: (10L−5) − 2(L−1) = 8L−3. The ratio is
// (8L−3)/(2(L−1)√P): a crossover at √P ≥ 6.5 for L = 2, tending to 4 as L
// grows — below the paper's 5, which charges the sparse panels every epoch.
// With L = 1 a 1D epoch moves no vertex-sized data at all and the ratio is
// +Inf.
//
// Real networks are not uniform, and there the product order moves the
// ratio further than this formula shows: each aggregation term on either
// side carries min(f^{l-1}, f^l). Nor does the formula see the mesh's
// row-split output layer, which replaces Algorithm 2's two log-softmax row
// gathers (and, where the layer aggregates first, its X·W panels) with two
// all-to-alls of (√P−1)/√P of a block each; it keeps the paper's accounting.
func TwoDOverOneDSteadyWordRatio(layers, p int) float64 {
	if layers <= 1 {
		return math.Inf(1)
	}
	L := float64(layers)
	return (8*L - 3) / (2 * (L - 1) * math.Sqrt(float64(p)))
}

func lgf(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}
