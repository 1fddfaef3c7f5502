package sparse_test

// Tests of the set-up path (edge list → adjacency → normalised operator →
// relabel) against the construction it replaced: a comparison sort of the
// COO entries, a hash map over the edges, and a COO round trip to add the
// self-loops. That code lives on here as the oracle; every comparison is
// bitwise on RowPtr, ColIdx and Val.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// oracleNewCSR is the comparison-sort builder NewCSR replaced. The sort is
// the stable one, which is what pins "duplicates are summed in input
// order"; on integer values it agrees with any order.
func oracleNewCSR(rows, cols int, entries []sparse.Coord) *sparse.CSR {
	sorted := append([]sparse.Coord(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	dedup := sorted[:0]
	for _, e := range sorted {
		if n := len(dedup); n > 0 && dedup[n-1].Row == e.Row && dedup[n-1].Col == e.Col {
			dedup[n-1].Val += e.Val
		} else {
			dedup = append(dedup, e)
		}
	}
	m := &sparse.CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, len(dedup)),
		Val:    make([]float64, len(dedup)),
	}
	for i, e := range dedup {
		m.RowPtr[e.Row+1]++
		m.ColIdx[i] = e.Col
		m.Val[i] = e.Val
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// oracleAdjacency dedups the edge list through a hash map, as
// Graph.Adjacency did.
func oracleAdjacency(g *graph.Graph) *sparse.CSR {
	seen := make(map[[2]int]struct{}, len(g.Edges))
	var entries []sparse.Coord
	for _, e := range g.Edges {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		entries = append(entries, sparse.Coord{Row: e[0], Col: e[1], Val: 1})
	}
	return oracleNewCSR(g.NumVertices, g.NumVertices, entries)
}

// oracleCOOAdjacency is the coordinate-list path Graph.Adjacency took
// before it sorted the edge list itself: one unit Coord per edge through
// NewCSR, the summed duplicates reset to 1.
func oracleCOOAdjacency(g *graph.Graph) *sparse.CSR {
	entries := make([]sparse.Coord, len(g.Edges))
	for k, e := range g.Edges {
		entries[k] = sparse.Coord{Row: e[0], Col: e[1], Val: 1}
	}
	a := sparse.NewCSR(g.NumVertices, g.NumVertices, entries)
	for k := range a.Val {
		a.Val[k] = 1
	}
	return a
}

// oracleExtractBlock is ExtractBlock as it was, growing the block by append.
func oracleExtractBlock(m *sparse.CSR, r0, r1, c0, c1 int) *sparse.CSR {
	out := &sparse.CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int, r1-r0+1)}
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		start := lo + sort.SearchInts(m.ColIdx[lo:hi], c0)
		end := lo + sort.SearchInts(m.ColIdx[lo:hi], c1)
		for k := start; k < end; k++ {
			out.ColIdx = append(out.ColIdx, m.ColIdx[k]-c0)
			out.Val = append(out.Val, m.Val[k])
		}
		out.RowPtr[i-r0+1] = len(out.ColIdx)
	}
	return out
}

// oracleNormalize adds the self-loops as n more COO entries and rebuilds.
func oracleNormalize(a *sparse.CSR) *sparse.CSR {
	n := a.Rows
	entries := a.Entries()
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
	}
	ai := oracleNewCSR(n, n, entries)
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			s += ai.Val[k]
		}
		dinv[i] = 1 / math.Sqrt(s)
	}
	for i := 0; i < n; i++ {
		for k := ai.RowPtr[i]; k < ai.RowPtr[i+1]; k++ {
			ai.Val[k] *= dinv[i] * dinv[ai.ColIdx[k]]
		}
	}
	return ai
}

// oracleReorderSym relabels every entry and rebuilds.
func oracleReorderSym(m *sparse.CSR, order []int) *sparse.CSR {
	inv := make([]int, len(order))
	for newIdx, oldIdx := range order {
		inv[oldIdx] = newIdx
	}
	entries := m.Entries()
	for k, e := range entries {
		entries[k].Row, entries[k].Col = inv[e.Row], inv[e.Col]
	}
	return oracleNewCSR(m.Rows, m.Cols, entries)
}

// requireSameBits fails unless got and want agree in shape, structure and
// the exact bits of every value.
func requireSameBits(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: lengths RowPtr %d ColIdx %d Val %d, want %d %d %d", what,
			len(got.RowPtr), len(got.ColIdx), len(got.Val), len(want.RowPtr), len(want.ColIdx), len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", what, k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: Val[%d] = %v (%#x), want %v (%#x)", what, k,
				got.Val[k], math.Float64bits(got.Val[k]), want.Val[k], math.Float64bits(want.Val[k]))
		}
	}
}

// TestNewCSRMatchesSortOracle is the seeded property test of the counting
// sort: degenerate and random rectangular shapes, sparse and duplicate-heavy
// fills, the three input orders, integer and float values.
func TestNewCSRMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 40}, {40, 1}, {7, 7}, {3, 50}, {50, 3}}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	values := map[string]func() float64{
		"int":   func() float64 { return float64(rng.Intn(15) - 7) },
		"float": func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)) },
	}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		// Entry counts from none, through fewer than the rows and columns
		// (empty ones guaranteed), to many times the cell count (every
		// cell a pile of duplicates).
		for _, count := range []int{0, 1, (rows + cols) / 3, rows * cols, 4*rows*cols + 3} {
			if rows*cols == 0 {
				count = 0
			}
			for kind, val := range values {
				entries := make([]sparse.Coord, count)
				for k := range entries {
					entries[k] = sparse.Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: val()}
				}
				name := fmt.Sprintf("%dx%d/%d %s entries", rows, cols, count, kind)
				requireSameBits(t, name+"/shuffled", sparse.NewCSR(rows, cols, entries), oracleNewCSR(rows, cols, entries))

				// Order the entries without merging duplicates.
				less := func(i, j int) bool {
					if entries[i].Row != entries[j].Row {
						return entries[i].Row < entries[j].Row
					}
					return entries[i].Col < entries[j].Col
				}
				sort.SliceStable(entries, less)
				requireSameBits(t, name+"/sorted", sparse.NewCSR(rows, cols, entries), oracleNewCSR(rows, cols, entries))
				for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
					entries[i], entries[j] = entries[j], entries[i]
				}
				requireSameBits(t, name+"/reversed", sparse.NewCSR(rows, cols, entries), oracleNewCSR(rows, cols, entries))
			}
		}
	}
	// One cell hit by every entry.
	same := make([]sparse.Coord, 100)
	for k := range same {
		same[k] = sparse.Coord{Row: 2, Col: 3, Val: rng.NormFloat64()}
	}
	requireSameBits(t, "all duplicates", sparse.NewCSR(4, 5, same), oracleNewCSR(4, 5, same))
}

// TestNewCSRSumsDuplicatesInInputOrder pins the duplicate rule with sums
// whose low bits depend on the order: (1e16 + 1) - 1e16 is 0, while
// (1e16 - 1e16) + 1 is 1. The three terms of each cell are spread through
// enough other entries that an unstable sort would be free to reorder them.
func TestNewCSRSumsDuplicatesInInputOrder(t *testing.T) {
	const n = 40
	var entries []sparse.Coord
	for _, v := range []float64{1e16, 1, -1e16} {
		for i := 0; i < n; i++ {
			entries = append(entries,
				sparse.Coord{Row: i, Col: (i * 7) % n, Val: v},
				sparse.Coord{Row: (i * 3) % n, Col: n + i, Val: 0.5}) // filler, columns [n, 2n)
		}
	}
	m := sparse.NewCSR(n, 2*n, entries)
	for i := 0; i < n; i++ {
		if got := m.At(i, (i*7)%n); math.Float64bits(got) != 0 {
			t.Fatalf("(%d,%d) = %v, want exactly +0 from (1e16 + 1) - 1e16", i, (i*7)%n, got)
		}
	}
	requireSameBits(t, "interleaved", m, oracleNewCSR(n, 2*n, entries))
	other := sparse.NewCSR(1, 1, []sparse.Coord{{Val: -1e16}, {Val: 1e16}, {Val: 1}})
	if other.Val[0] != 1 {
		t.Fatalf("(-1e16 + 1e16) + 1 = %v, want 1", other.Val[0])
	}
}

// TestNewCSRPanicMessages keeps the two input checks and their wording.
func TestNewCSRPanicMessages(t *testing.T) {
	for want, build := range map[string]func(){
		"sparse: negative dimensions 3x-4":          func() { sparse.NewCSR(3, -4, nil) },
		"sparse: entry (2,0) out of range for 2x3":  func() { sparse.NewCSR(2, 3, []sparse.Coord{{Row: 2, Col: 0}}) },
		"sparse: entry (0,-1) out of range for 2x3": func() { sparse.NewCSR(2, 3, []sparse.Coord{{Row: 0, Col: -1}}) },
		"sparse: entry (0,0) out of range for 0x0":  func() { sparse.NewCSR(0, 0, []sparse.Coord{{}}) },
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("panic %v, want %q", got, want)
				}
			}()
			build()
		}()
	}
}

// setupGraphs are the graphs the operator tests run over: the four
// benchmark recipes at their -quick scale (benchmark/workloads.go), and the
// shapes the recipes never produce.
func setupGraphs() map[string]*graph.Graph {
	rmat := func(scale, edgeFactor int, seed int64) *graph.Graph {
		return graph.AnalogSpec{Scale: scale, EdgeFactor: edgeFactor, Features: 1, Hidden: 1, Labels: 1, Seed: seed}.Build().Graph
	}
	directed := graph.RMAT(6, 5, graph.DefaultRMAT, rand.New(rand.NewSource(3)))
	loops := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 2}, {2, 2}, {0, 1}, {3, 4}, {4, 3}, {3, 3}, {0, 1}, {5, 0}} {
		loops.AddEdge(e[0], e[1])
	}
	isolated := graph.New(9)
	isolated.AddUndirectedEdge(1, 7)
	isolated.AddUndirectedEdge(7, 4)
	return map[string]*graph.Graph{
		"serial_wide":    rmat(7, 32, 1),
		"bcast1d_sparse": rmat(7, 2, 1),
		"summa2d_dense":  rmat(7, 50, 1),
		"halo1d_ldg":     graph.CommunityRMAT(64, 3, 8, 3, rand.New(rand.NewSource(1))),
		"directed":       directed,
		"self-loops":     loops,
		"isolated":       isolated,
		"edgeless":       graph.New(5),
		"n=0":            graph.New(0),
	}
}

// TestOperatorsMatchOracle checks Adjacency, NormalizedAdjacency and
// ReorderSym bitwise against the oracle composition on every set-up graph.
func TestOperatorsMatchOracle(t *testing.T) {
	for name, g := range setupGraphs() {
		adj := oracleAdjacency(g)
		requireSameBits(t, name+"/Adjacency", g.Adjacency(), adj)
		norm := oracleNormalize(adj)
		requireSameBits(t, name+"/NormalizedAdjacency", g.NormalizedAdjacency(), norm)
		order := rand.New(rand.NewSource(5)).Perm(g.NumVertices)
		requireSameBits(t, name+"/ReorderSym(adjacency)", sparse.ReorderSym(adj, order), oracleReorderSym(adj, order))
		requireSameBits(t, name+"/ReorderSym(normalised)", sparse.ReorderSym(norm, order), oracleReorderSym(norm, order))
	}
}

// TestAdjacencyMatchesCOOPath: on 20 R-MAT graphs with repeated edges and
// self-loops added, Adjacency is bit for bit the coordinate-list path it
// replaced, and NormalizedAdjacency — built without A or A + I — is
// NormalizeSymmetric over it. The graphs are drawn, and the matrices
// built, with the shared pool at one worker, two and the machine's count.
func TestAdjacencyMatchesCOOPath(t *testing.T) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		parallel.SetWorkers(workers)
		rng := rand.New(rand.NewSource(21))
		for k := 0; k < 20; k++ {
			g := graph.RMAT(4+rng.Intn(5), 1+rng.Intn(12), graph.DefaultRMAT, rng)
			n := g.NumVertices
			for range rng.Intn(4 * n) {
				e := g.Edges[rng.Intn(len(g.Edges))]
				g.AddEdge(e[0], e[1])
			}
			for range rng.Intn(n) {
				v := rng.Intn(n)
				g.AddEdge(v, v)
			}
			name := fmt.Sprintf("rmat-%d (n=%d, %d edges) at %d workers", k, n, g.NumEdges(), workers)
			adj := oracleCOOAdjacency(g)
			requireSameBits(t, name+"/Adjacency", g.Adjacency(), adj)
			requireSameBits(t, name+"/NormalizedAdjacency", g.NormalizedAdjacency(), sparse.NormalizeSymmetric(adj))
		}
	}
}

// TestExtractBlockMatchesAppendPath: every block of random matrices —
// empty rows, empty column ranges, the whole matrix — is the append-built
// one bit for bit, in arrays allocated at their final length.
func TestExtractBlockMatchesAppendPath(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for k := 0; k < 20; k++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		entries := make([]sparse.Coord, rng.Intn(3*rows*cols/2+1))
		for i := range entries {
			entries[i] = sparse.Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
		}
		m := sparse.NewCSR(rows, cols, entries)
		for b := 0; b < 10; b++ {
			r0, c0 := rng.Intn(rows+1), rng.Intn(cols+1)
			r1, c1 := r0+rng.Intn(rows-r0+1), c0+rng.Intn(cols-c0+1)
			if b == 0 {
				r0, r1, c0, c1 = 0, rows, 0, cols
			}
			name := fmt.Sprintf("%dx%d[%d:%d, %d:%d]", rows, cols, r0, r1, c0, c1)
			got := m.ExtractBlock(r0, r1, c0, c1)
			requireSameBits(t, name, got, oracleExtractBlock(m, r0, r1, c0, c1))
			if cap(got.ColIdx) != got.NNZ() || cap(got.Val) != got.NNZ() {
				t.Fatalf("%s: capacities %d and %d for %d nonzeros", name, cap(got.ColIdx), cap(got.Val), got.NNZ())
			}
		}
	}
}

// TestSelfLoopsAndRepeatsNormalise spells out the one case above whose
// answer is easy to get wrong: a repeated edge counts once, and an explicit
// self-loop adds to the one normalisation inserts, so the diagonal entry of
// a vertex of modified degree d is 2·d⁻¹.
func TestSelfLoopsAndRepeatsNormalise(t *testing.T) {
	g := setupGraphs()["self-loops"]
	a := g.Adjacency()
	if a.At(0, 1) != 1 || a.At(2, 2) != 1 || a.NNZ() != 7 {
		t.Fatalf("adjacency (0,1)=%v (2,2)=%v nnz=%d, want 1, 1, 7", a.At(0, 1), a.At(2, 2), a.NNZ())
	}
	n := g.NormalizedAdjacency()
	// Vertex 2 has its self-loop only (d = 2); vertex 3 also reaches 4 (d = 3).
	for v, d := range map[int]float64{2: 2, 3: 3} {
		dinv := 1 / math.Sqrt(d)
		if got, want := n.At(v, v), 2*(dinv*dinv); got != want {
			t.Fatalf("normalised (%d,%d) = %v, want %v", v, v, got, want)
		}
	}
}

// TestSetupAllocsConstant guards the linear builder: NormalizedAdjacency
// makes the same small number of allocations whatever the edge count. A
// hash map or a reflection-based sort coming back would make it grow with
// the graph (1 051 and 2 074 allocations on two benchmark graphs before).
func TestSetupAllocsConstant(t *testing.T) {
	allocs := func(scale int) float64 {
		g := graph.AnalogSpec{Scale: scale, EdgeFactor: 16, Features: 1, Hidden: 1, Labels: 1, Seed: 9}.Build().Graph
		return testing.AllocsPerRun(3, func() { g.NormalizedAdjacency() })
	}
	small, large := allocs(8), allocs(11)
	if small != large || large > 32 {
		t.Fatalf("NormalizedAdjacency allocations: %v at 2^8 vertices, %v at 2^11; want equal and ≤ 32", small, large)
	}
}
