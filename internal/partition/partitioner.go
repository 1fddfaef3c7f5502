package partition

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Assignment maps each vertex to a part in [0, P).
type Assignment struct {
	Parts []int
	P     int
}

// Validate checks that every vertex has a part in range.
func (a Assignment) Validate() error {
	for v, p := range a.Parts {
		if p < 0 || p >= a.P {
			return fmt.Errorf("partition: vertex %d assigned to invalid part %d of %d", v, p, a.P)
		}
	}
	return nil
}

// PartSizes returns the number of vertices in each part.
func (a Assignment) PartSizes() []int {
	sizes := make([]int, a.P)
	for _, p := range a.Parts {
		sizes[p]++
	}
	return sizes
}

// Imbalance returns maxSize / idealSize, 1.0 meaning perfectly balanced.
func (a Assignment) Imbalance() float64 {
	sizes := a.PartSizes()
	mx := 0
	for _, s := range sizes {
		if s > mx {
			mx = s
		}
	}
	ideal := float64(len(a.Parts)) / float64(a.P)
	if ideal == 0 {
		return 1
	}
	return float64(mx) / ideal
}

// ContigLayout relabels the assignment's vertices so every part becomes a
// contiguous index block: vertices are ordered by part, original order
// preserved within each part. It returns the resulting layout and the
// relabeling order, order[new] = old. Callers apply order to the problem
// matrices (rows, labels, masks) before training with the layout.
func (a Assignment) ContigLayout() (Contig1D, []int) {
	sizes := a.PartSizes()
	offsets := make([]int, a.P+1)
	for i, s := range sizes {
		offsets[i+1] = offsets[i] + s
	}
	order := make([]int, len(a.Parts))
	next := append([]int(nil), offsets[:a.P]...)
	for old, p := range a.Parts {
		order[next[p]] = old
		next[p]++
	}
	return NewContig1D(offsets), order
}

// Partitioners lists the selectable 1D vertex partitioners in the order
// ByName accepts them.
var Partitioners = []string{"block", "random", "ldg"}

// ByName returns the named vertex partitioner: "block" (contiguous index
// blocks — the identity layout), "random" (balanced random assignment,
// the paper's random vertex partitioning), or "ldg" (Stanton–Kliot linear
// deterministic greedy streaming — the Metis stand-in of §IV-A-8).
func ByName(name string) (func(g *graph.Graph, p int, rng *rand.Rand) Assignment, error) {
	switch name {
	case "block":
		return func(g *graph.Graph, p int, _ *rand.Rand) Assignment {
			return BlockAssignment(g.NumVertices, p)
		}, nil
	case "random":
		return func(g *graph.Graph, p int, rng *rand.Rand) Assignment {
			return RandomAssignment(g.NumVertices, p, rng)
		}, nil
	case "ldg":
		return LDG, nil
	default:
		return nil, fmt.Errorf("partition: unknown partitioner %q (want block, random, ldg)", name)
	}
}

// BlockAssignment assigns vertices to parts in consecutive blocks — the
// paper's random 1D block-row distribution (after an optional random vertex
// permutation upstream).
func BlockAssignment(n, p int) Assignment {
	b := NewBlock1D(n, p)
	parts := make([]int, n)
	for i := 0; i < p; i++ {
		for v := b.Lo(i); v < b.Hi(i); v++ {
			parts[v] = i
		}
	}
	return Assignment{Parts: parts, P: p}
}

// RandomAssignment assigns each vertex to a uniformly random part, then
// rebalances to exact block sizes. It models "random vertex partitioning".
func RandomAssignment(n, p int, rng *rand.Rand) Assignment {
	perm := rng.Perm(n)
	b := NewBlock1D(n, p)
	parts := make([]int, n)
	for i := 0; i < p; i++ {
		for k := b.Lo(i); k < b.Hi(i); k++ {
			parts[perm[k]] = i
		}
	}
	return Assignment{Parts: parts, P: p}
}

// GreedyBFS is a Metis-stand-in partitioner: it grows parts one at a time
// by breadth-first search from unassigned seed vertices, capping each part
// at ⌈n/p⌉ vertices. On graphs with locality it produces much lower total
// edgecut than random partitioning, reproducing the qualitative §IV-A-8
// comparison.
func GreedyBFS(g *graph.Graph, p int, rng *rand.Rand) Assignment {
	n := g.NumVertices
	adj := buildAdj(g)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	cap1 := (n + p - 1) / p
	order := rng.Perm(n)
	next := 0 // cursor into order for seed selection
	queue := make([]int, 0, cap1)
	for part := 0; part < p; part++ {
		filled := 0
		budget := cap1
		if part == p-1 {
			budget = n // last part absorbs remainder
		}
		for filled < budget {
			// Find a seed among unassigned vertices.
			for next < n && parts[order[next]] != -1 {
				next++
			}
			if next >= n {
				break
			}
			seed := order[next]
			queue = append(queue[:0], seed)
			parts[seed] = part
			filled++
			for len(queue) > 0 && filled < budget {
				v := queue[0]
				queue = queue[1:]
				for _, u := range adj.of(v) {
					if parts[u] == -1 {
						parts[u] = part
						filled++
						queue = append(queue, int(u))
						if filled >= budget {
							break
						}
					}
				}
			}
		}
	}
	// Any stragglers (possible when budget math exhausts early parts) go to
	// the lightest part.
	sizes := make([]int, p)
	for _, pt := range parts {
		if pt >= 0 {
			sizes[pt]++
		}
	}
	for v := range parts {
		if parts[v] == -1 {
			best := 0
			for i := 1; i < p; i++ {
				if sizes[i] < sizes[best] {
					best = i
				}
			}
			parts[v] = best
			sizes[best]++
		}
	}
	return Assignment{Parts: parts, P: p}
}

// LDG is the linear deterministic greedy streaming partitioner (Stanton &
// Kliot): vertices arrive in random order and each goes to the part with
// the most already-assigned neighbors, weighted by remaining capacity.
func LDG(g *graph.Graph, p int, rng *rand.Rand) Assignment {
	n := g.NumVertices
	adj := buildAdj(g)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = -1
	}
	capacity := float64(n)/float64(p) + 1
	sizes := make([]int, p)
	neighborCount := make([]int, p)
	for _, v := range rng.Perm(n) {
		for i := range neighborCount {
			neighborCount[i] = 0
		}
		for _, u := range adj.of(v) {
			if parts[u] >= 0 {
				neighborCount[parts[u]]++
			}
		}
		best, bestScore := 0, -1.0
		for i := 0; i < p; i++ {
			if float64(sizes[i]) >= capacity {
				continue
			}
			score := float64(neighborCount[i]) * (1 - float64(sizes[i])/capacity)
			if score > bestScore || (score == bestScore && sizes[i] < sizes[best]) {
				best, bestScore = i, score
			}
		}
		parts[v] = best
		sizes[best]++
	}
	return Assignment{Parts: parts, P: p}
}

// adjacencyLists is every vertex's out-neighbours in one array: v's are
// nbr[off[v]:off[v+1]], in edge order, a repeated edge repeated.
type adjacencyLists struct {
	off, nbr []int32
}

// of returns v's out-neighbours.
func (a adjacencyLists) of(v int) []int32 { return a.nbr[a.off[v]:a.off[v+1]] }

// buildAdj buckets the edge list by source with one stable counting sort.
func buildAdj(g *graph.Graph) adjacencyLists {
	if int64(len(g.Edges)) >= math.MaxInt32 {
		panic(fmt.Sprintf("partition: %d edges overflow the neighbour lists' int32 offsets", len(g.Edges)))
	}
	a := adjacencyLists{off: make([]int32, g.NumVertices+1), nbr: make([]int32, len(g.Edges))}
	for _, e := range g.Edges {
		a.off[e[0]+1]++
	}
	for v := 0; v < g.NumVertices; v++ {
		a.off[v+1] += a.off[v]
	}
	next := append([]int32(nil), a.off[:g.NumVertices]...)
	for _, e := range g.Edges {
		a.nbr[next[e[0]]] = int32(e[1])
		next[e[0]]++
	}
	return a
}

// EdgecutStats reports the communication metrics of §IV-A for a vertex
// assignment.
type EdgecutStats struct {
	// TotalCut is the number of directed edges whose endpoints live in
	// different parts (the classic partitioning objective Metis minimizes).
	TotalCut int
	// MaxCut is the largest per-part count of cut edges incident to that
	// part's vertices — the quantity that actually bounds bulk-synchronous
	// runtime (§IV-A-8).
	MaxCut int
	// PerPartRecvRows[i] is r_i: the number of distinct remote vertices
	// whose feature rows part i must receive (the edgecut_P(A) building
	// block of §IV-A-1).
	PerPartRecvRows []int
	// MaxRecvRows is max_i r_i = edgecut_P(A).
	MaxRecvRows int
	// TotalRecvRows is Σ_i r_i.
	TotalRecvRows int
}

// Edgecut computes the §IV-A communication metrics of assignment a over g.
// An edge (u, v) with parts[u] = i, parts[v] = j ≠ i means part i must
// receive v's feature row.
func Edgecut(g *graph.Graph, a Assignment) EdgecutStats {
	if len(a.Parts) != g.NumVertices {
		panic(fmt.Sprintf("partition: assignment covers %d vertices, graph has %d", len(a.Parts), g.NumVertices))
	}
	stats := EdgecutStats{PerPartRecvRows: make([]int, a.P)}
	perPartCut := make([]int, a.P)
	// Bit v·P + i records that part i already receives vertex v's row.
	seen := make([]uint64, (g.NumVertices*a.P+63)/64)
	for _, e := range g.Edges {
		pu, pv := a.Parts[e[0]], a.Parts[e[1]]
		if pu == pv {
			continue
		}
		stats.TotalCut++
		perPartCut[pu]++
		bit := e[1]*a.P + pu
		if seen[bit/64]&(1<<(bit%64)) == 0 {
			seen[bit/64] |= 1 << (bit % 64)
			stats.PerPartRecvRows[pu]++
		}
	}
	for _, c := range perPartCut {
		if c > stats.MaxCut {
			stats.MaxCut = c
		}
	}
	for _, r := range stats.PerPartRecvRows {
		stats.TotalRecvRows += r
		if r > stats.MaxRecvRows {
			stats.MaxRecvRows = r
		}
	}
	return stats
}
