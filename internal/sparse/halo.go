package sparse

import "fmt"

// This file implements the sparsity-aware halo machinery of §IV-A-1: a 1D
// block-row rank does not need whole remote feature blocks — only the rows
// whose columns actually appear in its local adjacency block. ColSupport
// and CompactCols extract that column support from CSR blocks;
// BuildHaloPlan assembles the per-peer fetch lists and the column-compacted
// adjacency blocks a trainer multiplies against the fetched rows.

// ColSupport returns the sorted distinct column indices in [c0, c1) that
// carry at least one nonzero of m, expressed relative to c0. It is the set
// of remote feature rows a rank owning m must fetch from the block
// [c0, c1) — the per-peer building block of edgecut_P(A) (§IV-A-1).
func ColSupport(m *CSR, c0, c1 int) []int {
	if c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("sparse: ColSupport [%d:%d) out of range for %d columns", c0, c1, m.Cols))
	}
	mark := make([]bool, c1-c0)
	for _, c := range m.ColIdx {
		if c >= c0 && c < c1 {
			mark[c-c0] = true
		}
	}
	support := make([]int, 0, len(mark))
	for c, hit := range mark {
		if hit {
			support = append(support, c)
		}
	}
	return support
}

// CompactCols drops m's empty columns: it returns the sorted support (the
// column indices with at least one nonzero) and a copy of m re-indexed
// onto it, with Cols = len(support). Column k of the compaction is column
// support[k] of m; nonzero order within each row is preserved, so SpMM
// against row-gathered dense inputs accumulates in exactly the original
// floating-point order.
func CompactCols(m *CSR) ([]int, *CSR) {
	support := ColSupport(m, 0, m.Cols)
	remap := make([]int, m.Cols)
	for k, c := range support {
		remap[c] = k
	}
	out := &CSR{
		Rows:   m.Rows,
		Cols:   len(support),
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: make([]int, m.NNZ()),
		Val:    append([]float64(nil), m.Val...),
	}
	for k, c := range m.ColIdx {
		out.ColIdx[k] = remap[c]
	}
	return support, out
}

// HaloPlan is a rank's reusable halo-exchange plan: which remote rows it
// must fetch from each peer's block, and the column-compacted adjacency
// blocks to multiply against the fetched rows. Built once before training,
// it turns every per-epoch dense broadcast (≈ n·f words) into indexed
// point-to-point fetches (edgecut·f words).
type HaloPlan struct {
	// Need[j] lists, sorted ascending and relative to block j's offset,
	// the columns of block j that carry at least one nonzero — the rows
	// the owner must fetch from peer j. len(Need) is the block count.
	Need [][]int
	// Blocks[j] is the owner's rows restricted to block j's columns and
	// compacted onto Need[j]: column k of Blocks[j] is global column
	// offsets[j] + Need[j][k]. Multiplying Blocks[j] against the fetched
	// rows reproduces the full-block product bit for bit.
	Blocks []*CSR
}

// BuildHaloPlan computes the halo plan of the row block at — a rank's
// local rows over the global column space — against the contiguous column
// blocking given by offsets: block j owns columns [offsets[j],
// offsets[j+1]), so len(offsets) is the block count plus one, offsets[0]
// must be 0, and offsets[len-1] must equal at.Cols.
//
// skip names one block to leave uncompacted (commonly the owner's own
// block, which multiplies local data directly and needs no fetch list):
// its Need entry stays nil and its Blocks entry keeps the original column
// space. Pass -1 to compact every block.
func BuildHaloPlan(at *CSR, offsets []int, skip int) *HaloPlan {
	p := len(offsets) - 1
	if p < 1 || offsets[0] != 0 || offsets[p] != at.Cols {
		panic(fmt.Sprintf("sparse: halo offsets %v do not tile %d columns", offsets, at.Cols))
	}
	plan := &HaloPlan{Need: make([][]int, p), Blocks: make([]*CSR, p)}
	for j := 0; j < p; j++ {
		if offsets[j] > offsets[j+1] {
			panic(fmt.Sprintf("sparse: halo offsets %v decrease at block %d", offsets, j))
		}
		blk := at.ExtractBlock(0, at.Rows, offsets[j], offsets[j+1])
		if j == skip {
			plan.Blocks[j] = blk
			continue
		}
		plan.Need[j], plan.Blocks[j] = CompactCols(blk)
	}
	return plan
}

// ReorderSym applies the symmetric permutation given by order (order[new]
// = old) to the square matrix m: entry (i, j) of the result equals
// m[order[i]][order[j]]. It relabels a graph's vertices so a partitioner's
// parts become contiguous index blocks, in O(nnz + n).
func ReorderSym(m *CSR, order []int) *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: ReorderSym needs a square matrix, got %dx%d", m.Rows, m.Cols))
	}
	if len(order) != m.Rows {
		panic(fmt.Sprintf("sparse: ReorderSym order covers %d of %d rows", len(order), m.Rows))
	}
	inv := make([]int, len(order))
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, oldIdx := range order {
		if oldIdx < 0 || oldIdx >= len(order) || inv[oldIdx] != -1 {
			panic(fmt.Sprintf("sparse: ReorderSym order is not a permutation at %d", newIdx))
		}
		inv[oldIdx] = newIdx
	}
	// NewCSR's counting sort without the COO detour: bucket the relabelled
	// entries by new column into the transpose t, then Transpose by new row.
	n := m.Rows
	t := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int, n+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[inv[c]+1]++
	}
	next := cursors(t.RowPtr)
	for i := 0; i < n; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := inv[m.ColIdx[k]]
			t.ColIdx[next[c]], t.Val[next[c]] = inv[i], m.Val[k]
			next[c]++
		}
	}
	return t.Transpose()
}
