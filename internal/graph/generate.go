package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// ErdosRenyi generates a directed G(n, p)-style graph with approximately
// n*n*p edges by skipping along the n*n cell grid with geometric gaps.
// geometricSkip walks the geometric CDF one step at a time, so a gap of k
// cells costs k steps and the whole grid O(n^2) time, whatever the edge
// count. Self-loops are excluded (the training pipeline adds its own).
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

// rmatChunkDraws is the most R-MAT draws one buffer holds, 256 KiB of
// float64s; rmatBuffers buffers circulate between the producer and the
// caller, so the draws in flight never grow with the edge count. The
// producer (rng.Float64) is the slower side, and each handoff at which one
// side waits costs a wake-up, so fewer, larger chunks are faster, up to a
// point. BenchmarkRandomDataset's summa2d_dense recipe (RMAT(13, 50)) at two
// workers on a 2-vCPU x86-64 VM, minimum / median of 16 interleaved runs of
// 10 syntheses: with four buffers, 8 192 draws 120 / 147 ms, 32 768 105 /
// 128 ms and 65 536 86 / 124 ms; with three, 32 768 91 / 122 ms and 65 536
// 89 / 125 ms. 32 768 and 65 536 draws are within that noise; in 10
// alternating runs of the summa2d_dense benchmark, 32 768 set up faster than
// 65 536 in 7, with half the memory.
const (
	rmatChunkDraws = 32768
	rmatBuffers    = 4
)

// RMAT generates a directed scale-free graph with 2^scale vertices and
// approximately edgeFactor * 2^scale edges, drawn as rmat draws them.
func RMAT(scale int, edgeFactor int, cfg RMATConfig, rng *rand.Rand) *Graph {
	g := New(rmatVertices(scale))
	edges := edgeFactor * g.NumVertices
	g.Edges = make([][2]int, 0, max(edges, 0))
	rmat(scale, edges, cfg, rng, func(_, u, v int) { g.AddEdge(u, v) })
	return g
}

// undirectedRMAT is RMAT(scale, edgeFactor, DefaultRMAT, rng) with every
// edge (u, v) followed by (v, u), the pair appended as rmat places it.
func undirectedRMAT(scale, edgeFactor int, rng *rand.Rand) *Graph {
	g := New(rmatVertices(scale))
	edges := edgeFactor * g.NumVertices
	g.Edges = make([][2]int, 0, max(2*edges, 0))
	rmat(scale, edges, DefaultRMAT, rng, func(_, u, v int) {
		g.Edges = append(g.Edges, [2]int{u, v}, [2]int{v, u})
	})
	return g
}

// rmatVertices is the vertex count of an R-MAT of the given scale, 2^scale.
func rmatVertices(scale int) int {
	if scale < 0 || scale > 30 {
		panic(fmt.Sprintf("graph: RMAT scale %d out of range [0, 30]", scale))
	}
	return 1 << uint(scale)
}

// rmat draws edges R-MAT edges over 2^scale vertices and calls place(e, u,
// v) for each but a self-loop, in order, e counting every edge drawn.
//
// Each edge takes 4·scale rng.Float64 draws, level by level. A producer
// goroutine makes the draws, in order, into chunks of whole edges while the
// caller turns the previous chunk into edges, so the edges, and the
// position rng is left at, are those of one goroutine drawing and placing
// edge by edge. When parallel.Inline reports one worker, the caller fills
// and consumes each chunk itself.
func rmat(scale, edges int, cfg RMATConfig, rng *rand.Rand, place func(e, u, v int)) {
	per := 4 * scale
	if edges <= 0 || per == 0 {
		// No draws: scale 0 has one vertex, and its every edge is a self-loop.
		return
	}
	batch := min(max(1, rmatChunkDraws/per), edges) // edges per chunk
	fill := func(d []float64) {
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	if parallel.Inline(2, int64(edges)*int64(per)) {
		buf := make([]float64, batch*per)
		for e := 0; e < edges; e += batch {
			d := buf[:min(batch, edges-e)*per]
			fill(d)
			rmatEdges(scale, cfg, e, d, place)
		}
		return
	}
	// Each channel can hold every buffer, so no send blocks. The producer
	// returns after its last chunk, and the caller receives every chunk
	// before it returns, so nothing draws from rng once rmat has returned.
	full := make(chan []float64, rmatBuffers)
	free := make(chan []float64, rmatBuffers)
	for range rmatBuffers {
		free <- make([]float64, batch*per)
	}
	go func() {
		for e := 0; e < edges; e += batch {
			d := (<-free)[:min(batch, edges-e)*per]
			fill(d)
			full <- d
		}
	}()
	for e := 0; e < edges; e += batch {
		d := <-full
		rmatEdges(scale, cfg, e, d, place)
		free <- d
	}
}

// rmatEdges places the edges whose draws d holds, 4·scale per edge, the
// first of them edge e: at each level the perturbed quadrant weights a, b,
// c, then the draw r that picks the quadrant. A self-loop is dropped.
//
// The quadrant is the first of top-left (r < a), top-right (r < a+b),
// bottom-left (r < a+b+c) and bottom-right whose test holds, computed as
// two bits rather than a branch per level, which the CPU mispredicts: the
// row bit is ¬(r<a) ∧ ¬(r<a+b) and the column bit ¬(r<a) ∧ ((r<a+b) ∨
// ¬(r<a+b+c)). The comparisons are those of the first-match rule, so a NaN
// or a negative weight picks the quadrant that rule picks.
func rmatEdges(scale int, cfg RMATConfig, e int, d []float64, place func(e, u, v int)) {
	for ; len(d) > 0; d, e = d[4*scale:], e+1 {
		u, v := 0, 0
		for x := d[:4*scale]; len(x) > 0; x = x[4:] {
			a := cfg.A * (1 + cfg.Noise*(x[0]-0.5))
			b := cfg.B * (1 + cfg.Noise*(x[1]-0.5))
			c := cfg.C * (1 + cfg.Noise*(x[2]-0.5))
			sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
			r := x[3] * sum
			inA, inAB, inABC := bit(r < a), bit(r < a+b), bit(r < a+b+c)
			u = u<<1 | (1^inA)&(1^inAB)
			v = v<<1 | (1^inA)&(inAB|(1^inABC))
		}
		if u != v {
			place(e, u, v)
		}
	}
}

// bit is 1 if t holds and 0 otherwise; the compiler turns it into a flag
// read (SETcc), not a branch.
func bit(t bool) int {
	if t {
		return 1
	}
	return 0
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
	// The k R-MATs draw one after another, so they are one stream of draws:
	// edge e is community e/local's.
	local := localFactor * per
	rmat(scalePer, k*local, DefaultRMAT, rng, func(e, u, v int) {
		base := e / local * per
		g.AddUndirectedEdge(base+u, base+v)
	})
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
