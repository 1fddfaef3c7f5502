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

// Adjacency returns the graph's adjacency matrix with unit weights, built
// in O(edges + vertices) by sparse.NewCSR's counting sort. Duplicate edges
// collapse to a single unit entry.
func (g *Graph) Adjacency() *sparse.CSR {
	entries := make([]sparse.Coord, len(g.Edges))
	for k, e := range g.Edges {
		entries[k] = sparse.Coord{Row: e[0], Col: e[1], Val: 1}
	}
	a := sparse.NewCSR(g.NumVertices, g.NumVertices, entries)
	// NewCSR summed repeated edges to their multiplicity.
	for k := range a.Val {
		a.Val[k] = 1
	}
	return a
}

// NormalizedAdjacency returns D^{-1/2}(A+I)D^{-1/2}, the matrix the paper
// trains with.
func (g *Graph) NormalizedAdjacency() *sparse.CSR {
	return sparse.NormalizeSymmetric(g.Adjacency())
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
