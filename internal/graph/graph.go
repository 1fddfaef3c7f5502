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

// NNZ returns the number of distinct entries of the unit adjacency A —
// Adjacency().NNZ(), self-loops counted once and duplicate edges collapsed —
// without building A: one counting pass buckets the edges' targets by
// source, and each row counts the targets it has not stamped yet. It
// allocates two int32 arrays over the vertices and one over the edges, and
// no column indices or values.
func (g *Graph) NNZ() int {
	n, edges := g.NumVertices, g.Edges
	if int64(len(edges))+int64(n) >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges over %d vertices overflow the counter's int32 indices", len(edges), n))
	}
	// start[i+2] counts row i's edges; after the prefix sum start[i+1] is
	// row i's first slot, and the scatter advances it to row i's end.
	start := make([]int32, n+2)
	for _, e := range edges {
		if uint(e[0]) >= uint(n) || uint(e[1]) >= uint(n) {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", e[0], e[1], n))
		}
		start[e[0]+2]++
	}
	for i := 2; i < n+2; i++ {
		start[i] += start[i-1]
	}
	dst := make([]int32, len(edges))
	for _, e := range edges {
		dst[start[e[0]+1]] = int32(e[1])
		start[e[0]+1]++
	}
	// stamp[j] = i+1 once row i has counted column j.
	stamp, nnz := make([]int32, n), 0
	for i := 0; i < n; i++ {
		for _, j := range dst[start[i]:start[i+1]] {
			if stamp[j] != int32(i+1) {
				stamp[j] = int32(i + 1)
				nnz++
			}
		}
	}
	return nnz
}

// NormalizedAdjacency returns D^{-1/2}(A+I)D^{-1/2}, the matrix the paper
// trains with, built straight from the edge list: A + I comes out of the
// counting sort at its final size, and each entry is scaled as it is
// written. Its bits are sparse.NormalizeSymmetric(Adjacency())'s: every
// entry of A + I is 1 but the diagonal of a vertex with a self-loop, 2, so
// each row sum is an exact integer and each entry is scaled by the same
// product.
func (g *Graph) NormalizedAdjacency() *sparse.CSR {
	return g.adjacency(true)
}

// adjacency builds the unit adjacency matrix A, or with normalized
// D^{-1/2}(A+I)D^{-1/2}, in O(edges + vertices) by a stable two-pass
// counting sort with no coordinate list: the edges' sources are bucketed
// by column, then scattered into their rows column by column, so every
// row's columns ascend. With normalized each row reserves one more slot,
// which its own column's turn fills before the row's self-loops. Each row
// is then deduplicated in place: repeated edges collapse to one unit entry,
// and a self-loop adds to the diagonal the identity put there. The scratch
// is int32, half the memory traffic of int.
func (g *Graph) adjacency(normalized bool) *sparse.CSR {
	n, edges := g.NumVertices, g.Edges
	if int64(len(edges))+int64(n) >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges over %d vertices overflow the builder's int32 indices", len(edges), n))
	}
	// Pass 1, by column: the sources of column j's edges, in input order.
	colPtr := make([]int32, n+1)
	rowAt := make([]int32, n+1)
	for _, e := range edges {
		if uint(e[0]) >= uint(n) || uint(e[1]) >= uint(n) {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", e[0], e[1], n))
		}
		colPtr[e[1]+1]++
		rowAt[e[0]+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	src := make([]int32, len(edges))
	next := append([]int32(nil), colPtr[:n]...)
	for _, e := range edges {
		src[next[e[1]]] = int32(e[0])
		next[e[1]]++
	}

	// Pass 2, by row, columns ascending.
	var extra int32
	if normalized {
		extra = 1
	}
	for i := 0; i < n; i++ {
		rowAt[i+1] += rowAt[i] + extra
	}
	cols := make([]int32, rowAt[n])
	copy(next, rowAt[:n])
	for j := 0; j < n; j++ {
		if normalized {
			cols[next[j]] = int32(j)
			next[j]++
		}
		for _, i := range src[colPtr[j]:colPtr[j+1]] {
			cols[next[i]] = int32(j)
			next[i]++
		}
	}

	// Deduplicate each row in place; with the identity, a repeated diagonal
	// is a self-loop, and the row sum (the distinct entries, plus one for
	// the loop) gives D.
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	loop := make([]bool, n)
	var dinv []float64
	if normalized {
		dinv = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		r := cols[rowAt[i]:rowAt[i+1]]
		w := 0
		for _, j := range r {
			if w > 0 && r[w-1] == j {
				loop[i] = loop[i] || int(j) == i
				continue
			}
			r[w] = j
			w++
		}
		a.RowPtr[i+1] = a.RowPtr[i] + w
		if normalized {
			s := float64(w)
			if loop[i] {
				s++
			}
			dinv[i] = 1 / math.Sqrt(s)
		}
	}
	a.ColIdx = make([]int, a.RowPtr[n])
	a.Val = make([]float64, a.RowPtr[n])
	for i := 0; i < n; i++ {
		base := a.RowPtr[i]
		for x, j := range cols[rowAt[i] : int(rowAt[i])+a.RowPtr[i+1]-base] {
			a.ColIdx[base+x] = int(j)
			v := 1.0
			if normalized {
				v = dinv[i] * dinv[j]
				if loop[i] && int(j) == i {
					v *= 2
				}
			}
			a.Val[base+x] = v
		}
	}
	return a
}
