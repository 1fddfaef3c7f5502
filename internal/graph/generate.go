package graph

import (
	"fmt"
	"math/rand"
)

// ErdosRenyi generates a directed G(n, p)-style graph with approximately
// n*n*p edges using geometric skipping, which is O(edges) rather than
// O(n^2). Self-loops are excluded (the training pipeline adds its own).
func ErdosRenyi(n int, avgDegree float64, rng *rand.Rand) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: ErdosRenyi needs n > 0, got %d", n))
	}
	p := avgDegree / float64(n)
	if p >= 1 {
		p = 0.999999
	}
	g := New(n)
	// Iterate over the implicit n*n cell grid with geometric gaps.
	total := int64(n) * int64(n)
	pos := int64(-1)
	for {
		// Draw gap ~ Geometric(p).
		gap := geometricSkip(p, rng)
		pos += gap
		if pos >= total {
			break
		}
		u, v := int(pos/int64(n)), int(pos%int64(n))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// geometricSkip returns a strictly positive skip distance with
// P(k) = p(1-p)^{k-1}.
func geometricSkip(p float64, rng *rand.Rand) int64 {
	if p <= 0 {
		return int64(^uint64(0) >> 1)
	}
	u := rng.Float64()
	// Inverse CDF of the geometric distribution.
	k := int64(1)
	q := 1 - p
	acc := p
	for u > acc && k < 1<<40 {
		u -= acc
		acc *= q
		k++
	}
	return k
}

// RMATConfig parameterizes the recursive-matrix (Kronecker) generator of
// Chakrabarti et al. The classic Graph500 parameters (0.57, 0.19, 0.19,
// 0.05) produce heavy-tailed degree distributions like real social and
// biological networks.
type RMATConfig struct {
	// A, B, C are the top-left, top-right, and bottom-left quadrant
	// probabilities; the bottom-right probability is 1-A-B-C.
	A, B, C float64
	// Noise perturbs quadrant probabilities per level to avoid exact
	// Kronecker artifacts.
	Noise float64
}

// DefaultRMAT is the standard Graph500 parameterization.
var DefaultRMAT = RMATConfig{A: 0.57, B: 0.19, C: 0.19, Noise: 0.1}

// RMAT generates a directed scale-free graph with 2^scale vertices and
// approximately edgeFactor * 2^scale edges.
func RMAT(scale int, edgeFactor int, cfg RMATConfig, rng *rand.Rand) *Graph {
	if scale < 0 || scale > 30 {
		panic(fmt.Sprintf("graph: RMAT scale %d out of range [0, 30]", scale))
	}
	n := 1 << uint(scale)
	g := New(n)
	edges := edgeFactor * n
	g.Edges = make([][2]int, 0, max(edges, 0))
	for e := 0; e < edges; e++ {
		u, v := 0, 0
		for level := 0; level < scale; level++ {
			a := cfg.A * (1 + cfg.Noise*(rng.Float64()-0.5))
			b := cfg.B * (1 + cfg.Noise*(rng.Float64()-0.5))
			c := cfg.C * (1 + cfg.Noise*(rng.Float64()-0.5))
			sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
			r := rng.Float64() * sum
			half := 1 << uint(scale-level-1)
			switch {
			case r < a:
				// top-left: no bit set
			case r < a+b:
				v += half
			case r < a+b+c:
				u += half
			default:
				u += half
				v += half
			}
		}
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Ring returns the undirected cycle over n vertices — a convenient
// deterministic test graph whose adjacency structure is trivially checkable.
func Ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddUndirectedEdge(i, (i+1)%n)
	}
	return g
}

// CommunityRMAT generates a graph with k communities, each an independent
// R-MAT of 2^scalePer vertices with localFactor edges per vertex, plus
// globalFactor random cross-community edges per vertex. It models graphs
// like Reddit that combine heavy-tailed degrees with strong community
// structure — the structure Metis exploits in the paper's §IV-A-8
// experiment and that plain R-MAT lacks.
func CommunityRMAT(k, scalePer, localFactor, globalFactor int, rng *rand.Rand) *Graph {
	per := 1 << uint(scalePer)
	n := k * per
	g := New(n)
	// Every local and cross-community edge is stored in both directions.
	g.Edges = make([][2]int, 0, max(2*n*(localFactor+globalFactor), 0))
	for c := 0; c < k; c++ {
		local := RMAT(scalePer, localFactor, DefaultRMAT, rng)
		base := c * per
		for _, e := range local.Edges {
			g.AddUndirectedEdge(base+e[0], base+e[1])
		}
	}
	for i := 0; i < n*globalFactor; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddUndirectedEdge(u, v)
		}
	}
	return g
}

// Grid2D returns the undirected 2D lattice of rows x cols vertices, a
// low-edgecut graph family where smart partitioning shines (the
// counterpoint to the paper's scale-free argument).
func Grid2D(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddUndirectedEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddUndirectedEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}
