// Package graph provides graph construction, synthetic generators, and the
// dataset analogs used to stand in for the paper's Reddit, Amazon, and
// Protein datasets.
//
// The paper's communication analysis depends only on aggregate quantities —
// vertex count n, edge count nnz(A), average degree d, and feature length f
// — never on edge identities. The generators here therefore aim to preserve
// those aggregates (and the power-law degree skew typical of the real
// datasets) at a scale that fits in laptop memory.
package graph

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Graph is an unweighted directed graph stored as an edge list plus vertex
// count. Undirected graphs store both edge directions.
type Graph struct {
	// NumVertices is the number of vertices, indexed [0, NumVertices).
	NumVertices int
	// Edges holds directed (src, dst) pairs. Self-loops and duplicates are
	// permitted in the list; matrix constructors deduplicate.
	Edges [][2]int
}

// New returns an empty graph over n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{NumVertices: n}
}

// AddEdge appends the directed edge (u, v).
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.NumVertices || v < 0 || v >= g.NumVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", u, v, g.NumVertices))
	}
	g.Edges = append(g.Edges, [2]int{u, v})
}

// AddUndirectedEdge appends both (u, v) and (v, u).
func (g *Graph) AddUndirectedEdge(u, v int) {
	g.AddEdge(u, v)
	if u != v {
		g.AddEdge(v, u)
	}
}

// NumEdges returns the number of stored directed edges (before
// deduplication).
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Adjacency returns the graph's adjacency matrix with unit weights.
// Duplicate edges collapse to a single unit entry.
func (g *Graph) Adjacency() *sparse.CSR {
	return g.adjacency(false)
}

// NormalizedAdjacency returns D^{-1/2}(A+I)D^{-1/2}, the matrix the paper
// trains with, built straight from the edge list: A + I comes out of one
// counting sort at its final size, and is scaled in place. Its bits are
// sparse.NormalizeSymmetric(Adjacency())'s: every entry of A + I is 1 but
// the diagonal of a vertex with a self-loop, 2, so each row sum is an exact
// integer and each entry is scaled by the same product.
func (g *Graph) NormalizedAdjacency() *sparse.CSR {
	ai := g.adjacency(true)
	dinv := make([]float64, ai.Rows)
	for i := range dinv {
		var s float64
		for _, v := range ai.Val[ai.RowPtr[i]:ai.RowPtr[i+1]] {
			s += v
		}
		dinv[i] = 1 / math.Sqrt(s)
	}
	for i := range dinv {
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			ai.Val[k] *= dinv[i] * dinv[ai.ColIdx[k]]
		}
	}
	return ai
}

// adjacency builds the unit adjacency matrix A, or A + I with identity, in
// O(edges + vertices) by a stable two-pass counting sort with no coordinate
// list: the edges' sources are bucketed by column, then scattered into
// their rows column by column, so every row's columns ascend. With identity
// each row reserves one more slot, which its own column's turn fills before
// the row's self-loops. Each row is then deduplicated in place: repeated
// edges collapse to one unit entry, and a self-loop adds to the diagonal
// the identity put there.
func (g *Graph) adjacency(identity bool) *sparse.CSR {
	n := g.NumVertices
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", e[0], e[1], n))
		}
	}
	extra := 0
	if identity {
		extra = 1
	}
	// Pass 1, by column: the sources of column j's edges, in input order.
	colPtr := make([]int, n+1)
	for _, e := range g.Edges {
		colPtr[e[1]+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	src := make([]int, len(g.Edges))
	next := append([]int(nil), colPtr[:n]...)
	for _, e := range g.Edges {
		src[next[e[1]]] = e[0]
		next[e[1]]++
	}
	// Pass 2, by row, columns ascending.
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, len(g.Edges)+extra*n)}
	for _, e := range g.Edges {
		a.RowPtr[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] += a.RowPtr[i] + extra
	}
	copy(next, a.RowPtr[:n])
	for j := 0; j < n; j++ {
		if identity {
			a.ColIdx[next[j]] = j
			next[j]++
		}
		for _, i := range src[colPtr[j]:colPtr[j+1]] {
			a.ColIdx[next[i]] = j
			next[i]++
		}
	}
	// Deduplicate each row in place; with the identity, a repeated diagonal
	// is a self-loop.
	loop := make([]bool, n)
	nnz := 0
	for i := 0; i < n; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		a.RowPtr[i] = nnz
		for k := lo; k < hi; k++ {
			j := a.ColIdx[k]
			if nnz > a.RowPtr[i] && a.ColIdx[nnz-1] == j {
				loop[i] = loop[i] || j == i
				continue
			}
			a.ColIdx[nnz] = j
			nnz++
		}
	}
	a.RowPtr[n] = nnz
	a.ColIdx = a.ColIdx[:nnz]
	a.Val = make([]float64, nnz)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] = 1
			if identity && loop[i] && a.ColIdx[k] == i {
				a.Val[k] = 2
			}
		}
	}
	return a
}

// DegreeStats summarizes the degree distribution of a graph or matrix.
type DegreeStats struct {
	MinDegree int
	MaxDegree int
	AvgDegree float64
	// EmptyRows counts vertices with no out-edges, the paper's
	// hypersparsity indicator for partitioned blocks.
	EmptyRows int
}

// Stats computes out-degree statistics from the adjacency matrix.
func Stats(a *sparse.CSR) DegreeStats {
	s := DegreeStats{MinDegree: int(^uint(0) >> 1)}
	for i := 0; i < a.Rows; i++ {
		d := a.RowNNZ(i)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.EmptyRows++
		}
	}
	if a.Rows == 0 {
		s.MinDegree = 0
	}
	s.AvgDegree = a.AvgDegree()
	return s
}
