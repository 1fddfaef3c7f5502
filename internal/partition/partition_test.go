package partition

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestBlock1DCoverage(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {7, 7}, {100, 64}, {5, 8}, {0, 2}, {1, 1}} {
		n, p := tc[0], tc[1]
		b := NewBlock1D(n, p)
		total := 0
		prevHi := 0
		for i := 0; i < p; i++ {
			if b.Lo(i) != prevHi {
				t.Fatalf("n=%d p=%d: block %d starts at %d, want %d", n, p, i, b.Lo(i), prevHi)
			}
			total += b.Size(i)
			prevHi = b.Hi(i)
		}
		if total != n || prevHi != n {
			t.Fatalf("n=%d p=%d: blocks cover %d items ending at %d", n, p, total, prevHi)
		}
	}
}

func TestBlock1DBalanced(t *testing.T) {
	b := NewBlock1D(10, 3)
	for i := 0; i < 3; i++ {
		if s := b.Size(i); s < 3 || s > 4 {
			t.Fatalf("block %d size %d not balanced", i, s)
		}
	}
}

func TestGrid2DRoundTrip(t *testing.T) {
	g := Grid2D{Pr: 3, Pc: 4}
	if g.Size() != 12 {
		t.Fatalf("Size = %d", g.Size())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			r := g.Rank(i, j)
			gi, gj := g.Coords(r)
			if gi != i || gj != j {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", i, j, r, gi, gj)
			}
		}
	}
}

func TestNewSquareGrid(t *testing.T) {
	g := NewSquareGrid(16)
	if g.Pr != 4 || g.Pc != 4 {
		t.Fatalf("square grid = %dx%d", g.Pr, g.Pc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square p")
		}
	}()
	NewSquareGrid(12)
}

func TestGridRowColRanks(t *testing.T) {
	g := Grid2D{Pr: 2, Pc: 3}
	row1 := g.RowRanks(1)
	if len(row1) != 3 || row1[0] != 3 || row1[2] != 5 {
		t.Fatalf("RowRanks(1) = %v", row1)
	}
	col2 := g.ColRanks(2)
	if len(col2) != 2 || col2[0] != 2 || col2[1] != 5 {
		t.Fatalf("ColRanks(2) = %v", col2)
	}
}

func TestGrid3DRoundTrip(t *testing.T) {
	g := NewGrid3D(27)
	if g.C != 3 || g.Size() != 27 {
		t.Fatalf("grid3d C=%d size=%d", g.C, g.Size())
	}
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				r := g.Rank(i, j, k)
				if seen[r] {
					t.Fatalf("duplicate rank %d", r)
				}
				seen[r] = true
				gi, gj, gk := g.Coords(r)
				if gi != i || gj != j || gk != k {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", i, j, k, r, gi, gj, gk)
				}
			}
		}
	}
}

func TestGrid3DGroups(t *testing.T) {
	g := NewGrid3D(8)
	fiber := g.FiberRanks(1, 0)
	if len(fiber) != 2 {
		t.Fatalf("fiber = %v", fiber)
	}
	// All fiber members share (i, j).
	for k, r := range fiber {
		i, j, kk := g.Coords(r)
		if i != 1 || j != 0 || kk != k {
			t.Fatalf("fiber member %d has coords (%d,%d,%d)", r, i, j, kk)
		}
	}
	row := g.LayerRowRanks(0, 1)
	for j, r := range row {
		i, jj, k := g.Coords(r)
		if i != 0 || k != 1 || jj != j {
			t.Fatalf("layer row member %d has coords (%d,%d,%d)", r, i, jj, k)
		}
	}
	col := g.LayerColRanks(1, 1)
	for i, r := range col {
		ii, j, k := g.Coords(r)
		if j != 1 || k != 1 || ii != i {
			t.Fatalf("layer col member %d has coords (%d,%d,%d)", r, ii, j, k)
		}
	}
}

// TestMeshNumbering pins the q × q × d numbering the mesh trainer is built
// on: rank(i, j, k) = k·q² + i·q + j, and at depth 1 the row, column and
// plane member lists are Grid2D's RowRanks/ColRanks member for member, in
// order — the binomial reduction order over a group, and with it the
// bit-identity of 2D training, follows the member order.
func TestMeshNumbering(t *testing.T) {
	for q := 1; q <= 4; q++ {
		for _, d := range []int{1, q} {
			m := NewMesh(q, d)
			if m.Size() != q*q*d {
				t.Fatalf("%dx%dx%d mesh: Size = %d", q, q, d, m.Size())
			}
			for i := 0; i < q; i++ {
				for j := 0; j < q; j++ {
					for k := 0; k < d; k++ {
						r := m.Rank(i, j, k)
						if r != k*q*q+i*q+j {
							t.Fatalf("%dx%dx%d mesh: Rank(%d,%d,%d) = %d, want %d", q, q, d, i, j, k, r, k*q*q+i*q+j)
						}
						if gi, gj, gk := m.Coords(r); gi != i || gj != j || gk != k {
							t.Fatalf("%dx%dx%d mesh: Coords(%d) = (%d,%d,%d), want (%d,%d,%d)", q, q, d, r, gi, gj, gk, i, j, k)
						}
					}
					if fiber := m.FiberRanks(i, j); len(fiber) != d {
						t.Fatalf("%dx%dx%d mesh: fiber (%d,%d) = %v, want %d members", q, q, d, i, j, fiber, d)
					}
				}
			}
			for j := 0; j < q; j++ {
				if plane := m.PlaneRanks(j); len(plane) != q*d {
					t.Fatalf("%dx%dx%d mesh: plane %d = %v, want %d members", q, q, d, j, plane, q*d)
				}
			}
			if d != 1 {
				continue
			}
			g := NewSquareGrid(q * q)
			for i := 0; i < q; i++ {
				if got, want := m.LayerRowRanks(i, 0), g.RowRanks(i); !slices.Equal(got, want) {
					t.Fatalf("depth-1 %dx%d mesh: row %d = %v, Grid2D has %v", q, q, i, got, want)
				}
				if got, want := m.LayerColRanks(i, 0), g.ColRanks(i); !slices.Equal(got, want) {
					t.Fatalf("depth-1 %dx%d mesh: column %d = %v, Grid2D has %v", q, q, i, got, want)
				}
				if got, want := m.PlaneRanks(i), g.ColRanks(i); !slices.Equal(got, want) {
					t.Fatalf("depth-1 %dx%d mesh: plane %d = %v, Grid2D column has %v", q, q, i, got, want)
				}
			}
		}
	}
	if cube := NewGrid3D(27); cube != NewMesh(3, 3) {
		t.Fatalf("NewGrid3D(27) = %+v, want the 3x3x3 mesh", cube)
	}
}

func TestPerfectPredicates(t *testing.T) {
	if !IsPerfectSquare(36) || IsPerfectSquare(35) {
		t.Fatal("IsPerfectSquare wrong")
	}
	if !IsPerfectCube(27) || IsPerfectCube(26) {
		t.Fatal("IsPerfectCube wrong")
	}
}

func TestBlockAssignment(t *testing.T) {
	a := BlockAssignment(10, 3)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := a.PartSizes()
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("sizes = %v", sizes)
	}
	// Consecutive blocks.
	if a.Parts[0] != 0 || a.Parts[9] != 2 {
		t.Fatalf("parts = %v", a.Parts)
	}
}

func TestRandomAssignmentBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomAssignment(100, 7, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := a.Imbalance(); imb > 1.1 {
		t.Fatalf("random assignment imbalance = %v", imb)
	}
}

func TestGreedyBFSCoversAndBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Grid2D(20, 20)
	a := GreedyBFS(g, 8, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := a.Imbalance(); imb > 1.3 {
		t.Fatalf("GreedyBFS imbalance = %v", imb)
	}
}

func TestLDGCoversAndBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Grid2D(15, 15)
	a := LDG(g, 5, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := a.Imbalance(); imb > 1.3 {
		t.Fatalf("LDG imbalance = %v", imb)
	}
}

// TestStreamingAssignmentsPinned pins LDG's and GreedyBFS's assignments
// and cuts on a community graph with repeated edges: both walk each
// vertex's out-neighbours in edge order, a repeated edge counted again, so
// a neighbour list built any other way moves them. The values predate the
// lists' single counting sort.
func TestStreamingAssignmentsPinned(t *testing.T) {
	g := graph.CommunityRMAT(8, 5, 6, 2, rand.New(rand.NewSource(3)))
	for _, e := range g.Edges[:200] {
		g.AddEdge(e[0], e[1])
	}
	for _, tc := range []struct {
		name             string
		assign           func(*graph.Graph, int, *rand.Rand) Assignment
		digest           uint64
		totalCut, maxCut int
	}{
		{"LDG", LDG, 0xb2d3ae447ac6a845, 1320, 367},
		{"GreedyBFS", GreedyBFS, 0x73935e9490f1250d, 1964, 564},
	} {
		a := tc.assign(g, 4, rand.New(rand.NewSource(5)))
		h := fnv.New64a()
		for _, p := range a.Parts {
			h.Write([]byte{byte(p)})
		}
		s := Edgecut(g, a)
		if h.Sum64() != tc.digest || s.TotalCut != tc.totalCut || s.MaxCut != tc.maxCut {
			t.Errorf("%s: digest %#x, cut %d total / %d max; want %#x, %d / %d",
				tc.name, h.Sum64(), s.TotalCut, s.MaxCut, tc.digest, tc.totalCut, tc.maxCut)
		}
	}
}

// TestGreedyBeatsRandomOnLattice reproduces the §IV-A-8 qualitative result:
// a locality-aware partitioner cuts total edgecut dramatically on a graph
// with structure, relative to random partitioning.
func TestGreedyBeatsRandomOnLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Grid2D(30, 30)
	random := Edgecut(g, RandomAssignment(g.NumVertices, 9, rng))
	greedy := Edgecut(g, GreedyBFS(g, 9, rng))
	if greedy.TotalCut >= random.TotalCut/2 {
		t.Fatalf("greedy cut %d should be far below random cut %d", greedy.TotalCut, random.TotalCut)
	}
}

// TestMaxVsTotalGapOnPowerLaw reproduces the paper's key observation: on
// scale-free graphs the *total* cut improves much more than the *max
// per-process* cut, so bulk-synchronous runtime barely benefits.
func TestMaxVsTotalGapOnPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RMAT(11, 16, graph.DefaultRMAT, rng)
	p := 16
	random := Edgecut(g, RandomAssignment(g.NumVertices, p, rng))
	greedy := Edgecut(g, GreedyBFS(g, p, rng))
	totalReduction := 1 - float64(greedy.TotalCut)/float64(random.TotalCut)
	maxReduction := 1 - float64(greedy.MaxCut)/float64(random.MaxCut)
	if totalReduction <= 0 {
		t.Skip("greedy did not beat random on this instance; power-law graphs resist partitioning")
	}
	if maxReduction > totalReduction+0.05 {
		t.Fatalf("max-cut reduction (%.2f) should not exceed total-cut reduction (%.2f): imbalance dominates",
			maxReduction, totalReduction)
	}
}

func TestEdgecutSimple(t *testing.T) {
	// Two triangles joined by one edge, split perfectly in two parts.
	g := graph.New(6)
	g.AddUndirectedEdge(0, 1)
	g.AddUndirectedEdge(1, 2)
	g.AddUndirectedEdge(0, 2)
	g.AddUndirectedEdge(3, 4)
	g.AddUndirectedEdge(4, 5)
	g.AddUndirectedEdge(3, 5)
	g.AddUndirectedEdge(2, 3) // the only cut edge
	a := Assignment{Parts: []int{0, 0, 0, 1, 1, 1}, P: 2}
	st := Edgecut(g, a)
	if st.TotalCut != 2 { // (2,3) and (3,2)
		t.Fatalf("TotalCut = %d, want 2", st.TotalCut)
	}
	if st.MaxCut != 1 {
		t.Fatalf("MaxCut = %d, want 1", st.MaxCut)
	}
	if st.PerPartRecvRows[0] != 1 || st.PerPartRecvRows[1] != 1 {
		t.Fatalf("recv rows = %v", st.PerPartRecvRows)
	}
	if st.MaxRecvRows != 1 || st.TotalRecvRows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEdgecutDistinctRows(t *testing.T) {
	// Vertex 0 (part 0) has two edges to vertex 3 (part 1) via different
	// sources; distinct-row counting must count vertex 3 once.
	g := graph.New(4)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	a := Assignment{Parts: []int{0, 0, 0, 1}, P: 2}
	st := Edgecut(g, a)
	if st.TotalCut != 2 {
		t.Fatalf("TotalCut = %d", st.TotalCut)
	}
	if st.PerPartRecvRows[0] != 1 {
		t.Fatalf("part 0 must need exactly 1 distinct row, got %d", st.PerPartRecvRows[0])
	}
}

func TestEdgecutRandomUpperBound(t *testing.T) {
	// §IV-A-1: a non-adversarial edgecut is never higher than n(P-1)/P.
	rng := rand.New(rand.NewSource(6))
	g := graph.ErdosRenyi(400, 12, rng)
	p := 8
	st := Edgecut(g, RandomAssignment(g.NumVertices, p, rng))
	bound := float64(g.NumVertices) * float64(p-1) / float64(p)
	if float64(st.MaxRecvRows) > bound {
		t.Fatalf("edgecut %d exceeds theoretical bound %.0f", st.MaxRecvRows, bound)
	}
}

// TestEdgecutMatchesMapOracle checks the bitset dedup of (part, vertex)
// pairs against the hash map it replaced, on a graph with repeated edges
// and a part count that is not a power of two.
func TestEdgecutMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.CommunityRMAT(8, 5, 8, 3, rng)
	for _, p := range []int{1, 3, 4, 7, 64, 65} {
		a := RandomAssignment(g.NumVertices, p, rng)
		recv := make([]int, p)
		seen := map[[2]int]struct{}{}
		for _, e := range g.Edges {
			key := [2]int{a.Parts[e[0]], e[1]}
			if _, dup := seen[key]; key[0] != a.Parts[e[1]] && !dup {
				seen[key] = struct{}{}
				recv[key[0]]++
			}
		}
		st := Edgecut(g, a)
		total := 0
		for i, want := range recv {
			total += want
			if st.PerPartRecvRows[i] != want {
				t.Fatalf("P=%d: part %d receives %d rows, oracle %d", p, i, st.PerPartRecvRows[i], want)
			}
		}
		if st.TotalRecvRows != total {
			t.Fatalf("P=%d: TotalRecvRows = %d, oracle %d", p, st.TotalRecvRows, total)
		}
	}
}

func TestAssignmentValidate(t *testing.T) {
	a := Assignment{Parts: []int{0, 5}, P: 2}
	if err := a.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEdgecutMismatchedSizesPanics(t *testing.T) {
	g := graph.Ring(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Edgecut(g, Assignment{Parts: []int{0}, P: 1})
}

func TestContig1DLayout(t *testing.T) {
	c := NewContig1D([]int{0, 3, 3, 10})
	if c.Blocks() != 3 || c.Items() != 10 {
		t.Fatalf("Blocks=%d Items=%d", c.Blocks(), c.Items())
	}
	if c.Lo(1) != 3 || c.Hi(1) != 3 || c.Size(1) != 0 {
		t.Fatal("empty middle block mishandled")
	}
	if c.Lo(2) != 3 || c.Hi(2) != 10 || c.Size(2) != 7 {
		t.Fatal("last block mishandled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for decreasing offsets")
		}
	}()
	NewContig1D([]int{0, 5, 2})
}

func TestOffsets1D(t *testing.T) {
	b := NewBlock1D(10, 3)
	got := Offsets1D(b)
	want := []int{0, 3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offsets %v, want %v", got, want)
		}
	}
	c := NewContig1D([]int{0, 4, 9})
	got = Offsets1D(c)
	for i, w := range []int{0, 4, 9} {
		if got[i] != w {
			t.Fatalf("contig offsets %v", got)
		}
	}
}

// TestContigLayoutRelabeling: ContigLayout orders vertices by part with
// original order preserved within each part, and the layout sizes match
// the part sizes.
func TestContigLayoutRelabeling(t *testing.T) {
	a := Assignment{Parts: []int{2, 0, 1, 0, 2, 1, 0}, P: 3}
	layout, order := a.ContigLayout()
	wantOrder := []int{1, 3, 6, 2, 5, 0, 4}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order %v, want %v", order, wantOrder)
		}
	}
	sizes := a.PartSizes()
	for i := 0; i < a.P; i++ {
		if layout.Size(i) != sizes[i] {
			t.Fatalf("layout block %d has %d items, part has %d", i, layout.Size(i), sizes[i])
		}
	}
	// Every relabeled vertex must land inside its part's block.
	for newIdx, oldIdx := range order {
		part := a.Parts[oldIdx]
		if newIdx < layout.Lo(part) || newIdx >= layout.Hi(part) {
			t.Fatalf("vertex %d (part %d) relabeled to %d outside [%d, %d)",
				oldIdx, part, newIdx, layout.Lo(part), layout.Hi(part))
		}
	}
}

func TestPartitionerByName(t *testing.T) {
	g := graph.Ring(12)
	rng := rand.New(rand.NewSource(3))
	for _, name := range Partitioners {
		fn, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := fn(g, 4, rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Parts) != 12 || a.P != 4 {
			t.Fatalf("%s produced %d parts over %d vertices", name, a.P, len(a.Parts))
		}
	}
	if _, err := ByName("metis"); err == nil {
		t.Fatal("expected error for unknown partitioner")
	}
}
