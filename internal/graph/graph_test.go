package graph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

func TestAddEdgeAndAdjacency(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate collapses
	a := g.Adjacency()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	if a.At(0, 1) != 1 || a.At(1, 2) != 1 {
		t.Fatal("adjacency entries wrong")
	}
}

// TestNNZMatchesAdjacency: Graph.NNZ counts what Adjacency stores, on every
// generator's graph and on a hand-built one with duplicates, self-loops
// (one repeated) and an isolated vertex.
func TestNNZMatchesAdjacency(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	hand := New(5)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {2, 2}, {2, 2}, {1, 0}, {3, 3}, {1, 2}, {2, 1}, {0, 3}} {
		hand.AddEdge(e[0], e[1])
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", New(0)},
		{"hand", hand},
		{"ring", Ring(9)},
		{"grid", Grid2D(4, 6)},
		{"erdos-renyi", ErdosRenyi(300, 6, rng())},
		{"rmat", RMAT(9, 8, DefaultRMAT, rng())},
		{"community-rmat", CommunityRMAT(8, 5, 6, 2, rng())},
		{"analog", Analogs[0].Quick().Build().Graph},
	} {
		if got, want := tc.g.NNZ(), tc.g.Adjacency().NNZ(); got != want {
			t.Errorf("%s: NNZ() = %d, Adjacency().NNZ() = %d", tc.name, got, want)
		}
	}
	if got := hand.NNZ(); got != 7 {
		t.Errorf("hand-built graph: NNZ() = %d, want 7", got)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(0, 2)
}

func TestAddUndirectedEdge(t *testing.T) {
	g := New(3)
	g.AddUndirectedEdge(0, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.AddUndirectedEdge(1, 1) // self-loop stored once
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 after self-loop", g.NumEdges())
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(5)
	a := g.Adjacency()
	if a.NNZ() != 10 {
		t.Fatalf("ring(5) NNZ = %d, want 10", a.NNZ())
	}
	for i := 0; i < 5; i++ {
		if a.At(i, (i+1)%5) != 1 || a.At((i+1)%5, i) != 1 {
			t.Fatalf("ring missing edge at %d", i)
		}
	}
	st := Stats(a)
	if st.MinDegree != 2 || st.MaxDegree != 2 {
		t.Fatalf("ring degrees = %+v, want all 2", st)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	if g.NumVertices != 12 {
		t.Fatalf("grid vertices = %d", g.NumVertices)
	}
	// 3x4 grid has 3*3 + 2*4 = 17 undirected edges = 34 directed.
	if g.NumEdges() != 34 {
		t.Fatalf("grid edges = %d, want 34", g.NumEdges())
	}
}

func TestErdosRenyiDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ErdosRenyi(2000, 10, rng)
	d := float64(g.NumEdges()) / 2000
	if d < 7 || d > 13 {
		t.Fatalf("ER avg degree = %v, want ≈10", d)
	}
}

func TestErdosRenyiNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := ErdosRenyi(500, 8, rng)
	for _, e := range g.Edges {
		if e[0] == e[1] {
			t.Fatal("ER generated a self-loop")
		}
	}
}

func TestRMATProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := RMAT(10, 16, DefaultRMAT, rng)
	if g.NumVertices != 1024 {
		t.Fatalf("RMAT vertices = %d, want 1024", g.NumVertices)
	}
	// Heavy-tailed: max degree should far exceed average.
	st := Stats(g.Adjacency())
	if st.MaxDegree < int(3*st.AvgDegree) {
		t.Fatalf("RMAT not heavy-tailed: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestRMATDeterministicWithSeed(t *testing.T) {
	a := RMAT(8, 8, DefaultRMAT, rand.New(rand.NewSource(1)))
	b := RMAT(8, 8, DefaultRMAT, rand.New(rand.NewSource(1)))
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("RMAT not deterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
}

func TestNormalizedAdjacencyRowSumsBounded(t *testing.T) {
	g := Ring(8)
	norm := g.NormalizedAdjacency()
	if norm.NNZ() != 24 { // ring + self loops
		t.Fatalf("normalized NNZ = %d, want 24", norm.NNZ())
	}
	// All values in (0, 1].
	for _, v := range norm.Val {
		if v <= 0 || v > 1 {
			t.Fatalf("normalized value %v out of (0,1]", v)
		}
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	st := Stats(New(4).Adjacency())
	if st.EmptyRows != 4 || st.MinDegree != 0 || st.AvgDegree != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestAnalogSpecs(t *testing.T) {
	if len(Analogs) != 3 {
		t.Fatalf("want 3 analogs, got %d", len(Analogs))
	}
	for _, spec := range Analogs {
		if _, err := AnalogByName(spec.Name); err != nil {
			t.Fatal(err)
		}
		if spec.Paper.Vertices == 0 || spec.Paper.Edges == 0 {
			t.Fatalf("%s missing paper-scale data", spec.Name)
		}
	}
	if _, err := AnalogByName("nope"); err == nil {
		t.Fatal("expected error for unknown analog")
	}
}

func TestAnalogBuildSmall(t *testing.T) {
	spec := AnalogSpec{
		Name: "tiny", Scale: 8, EdgeFactor: 8,
		Features: 10, Hidden: 4, Labels: 3, Seed: 7,
	}
	d := spec.Build()
	if d.Graph.NumVertices != 256 {
		t.Fatalf("vertices = %d, want 256", d.Graph.NumVertices)
	}
	if d.Features.Rows != 256 || d.Features.Cols != 10 {
		t.Fatal("features shape wrong")
	}
	if len(d.Labels) != 256 {
		t.Fatal("labels length wrong")
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
	}
	w := d.LayerWidths()
	if len(w) != 3 || w[0] != 10 || w[1] != 4 || w[2] != 3 {
		t.Fatalf("LayerWidths = %v", w)
	}
	// Symmetry: adjacency must equal its transpose.
	a := d.Graph.Adjacency()
	if !sparse.Equal(a, a.Transpose(), 0) {
		t.Fatal("analog graph must be symmetric")
	}
}

func TestAnalogDFRatios(t *testing.T) {
	// The analogs must preserve the paper's d/f ordering:
	// amazon (f >> d) < reddit ≈ protein (d ≈ f).
	ratios := map[string]float64{}
	for _, spec := range Analogs {
		d := spec.Build()
		a := d.Graph.Adjacency()
		fAvg := float64(spec.Features+spec.Hidden+spec.Labels) / 3
		ratios[spec.Name] = a.AvgDegree() / fAvg
	}
	if !(ratios["amazon-sim"] < ratios["reddit-sim"]) {
		t.Fatalf("d/f ordering violated: %v", ratios)
	}
	if !(ratios["amazon-sim"] < ratios["protein-sim"]) {
		t.Fatalf("d/f ordering violated: %v", ratios)
	}
	if math.IsNaN(ratios["reddit-sim"]) {
		t.Fatal("NaN ratio")
	}
}

func TestSyntheticDataset(t *testing.T) {
	d := Synthetic("test", Ring(12), 5, 4, 3, 9)
	if d.FeatureLen() != 5 || d.NumLabels != 3 || len(d.Labels) != 12 {
		t.Fatal("Synthetic dataset malformed")
	}
}
