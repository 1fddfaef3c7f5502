package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// ConfigureRowDecomposition applies a partitioner choice and halo flag to
// a 1D/1.5D trainer. The zero choice (no partitioner, no halo) applies to
// every trainer and changes nothing; any other is rejected for the other
// trainers, even the identity "block" partitioner. It installs the halo
// mode, runs the named partitioner over g at the trainer's block count
// (ranks for 1D, teams for 1.5D), relabels the problem in place so the
// parts are contiguous blocks, and installs the resulting layout. It
// returns the relabeling order (order[new] = old; nil when the layout is
// the default block one) for mapping row-per-vertex outputs back with
// RestoreRows. A nil problem stops after the checks and the halo mode:
// what can be decided before the data exists.
func ConfigureRowDecomposition(tr Trainer, problem *Problem, g *graph.Graph, partitioner string, halo bool, seed int64) ([]int, error) {
	if partitioner == "" && !halo {
		return nil, nil
	}
	rt, ok := tr.(RowTrainer)
	if !ok {
		return nil, fmt.Errorf("core: partitioner/halo options apply to the 1d and 1.5d algorithms, not %q", tr.Name())
	}
	rt.Rows().Halo = halo
	if partitioner == "" || partitioner == "block" {
		return nil, nil
	}
	assign, err := partition.ByName(partitioner)
	if err != nil || problem == nil {
		return nil, err
	}
	relabeled, layout, order, err := PartitionProblem(*problem, assign(g, rt.Blocks(), rand.New(rand.NewSource(seed))))
	if err != nil {
		return nil, err
	}
	rt.Rows().Layout = layout
	*problem = relabeled
	return order, nil
}

// PartitionProblem relabels the vertices of p so that assignment a's
// parts become contiguous 1D row blocks: the adjacency is symmetrically
// permuted and labels/masks are reordered to match, while the features are
// not copied — the relabeled problem reads H⁰'s rows through the order,
// so Features stays the caller's matrix in its original order. It returns the
// relabeled problem, the contiguous layout to install as the row trainer's
// RowOptions.Layout (one block per team), and the relabeling order
// (order[new] = old) that RestoreRows uses to map the trained output back
// to the original vertex numbering. Training results are otherwise
// unaffected: losses, weights, and accuracies are permutation-invariant.
func PartitionProblem(p Problem, a partition.Assignment) (Problem, partition.Contig1D, []int, error) {
	if err := a.Validate(); err != nil {
		return Problem{}, partition.Contig1D{}, nil, err
	}
	if p.A == nil || len(a.Parts) != p.A.Rows {
		return Problem{}, partition.Contig1D{}, nil,
			fmt.Errorf("core: assignment covers %d vertices, problem has %d", len(a.Parts), rowsOf(p.A))
	}
	layout, order := a.ContigLayout()
	out := p
	out.A = sparse.ReorderSym(p.A, order)
	out.order = order
	if p.order != nil {
		out.order = gather(p.order, order) // relabeling a relabeled problem
	}
	out.Labels = gather(p.Labels, order)
	out.TrainMask = gather(p.TrainMask, order)
	out.ValMask = gather(p.ValMask, order)
	return out, layout, order, nil
}

// RestoreRows undoes a PartitionProblem relabeling on a row-per-vertex
// matrix: row v of the result is m's row for original vertex v.
func RestoreRows(m *dense.Matrix, order []int) *dense.Matrix {
	out := dense.New(m.Rows, m.Cols)
	for newIdx, oldIdx := range order {
		copy(out.Row(oldIdx), m.Row(newIdx))
	}
	return out
}

func rowsOf(a *sparse.CSR) int {
	if a == nil {
		return 0
	}
	return a.Rows
}

// gather reorders a per-vertex slice to the relabeled numbering,
// preserving nil.
func gather[T any](x []T, order []int) []T {
	if x == nil {
		return nil
	}
	out := make([]T, len(order))
	for newIdx, oldIdx := range order {
		out[newIdx] = x[oldIdx]
	}
	return out
}
