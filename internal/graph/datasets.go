package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/dense"
)

// PaperScale records a dataset's characteristics as reported in Table VI of
// the paper, for side-by-side reporting against the simulated analog.
type PaperScale struct {
	Vertices int
	Edges    int64
	Features int
	Labels   int
}

// Dataset bundles a graph with node features and labels, mirroring the
// inputs to the paper's training runs.
type Dataset struct {
	Name string
	// Graph is the (directed, symmetrized) connectivity.
	Graph *Graph
	// Features is the n x f input feature matrix H^0.
	Features *dense.Matrix
	// Labels holds one class index per vertex.
	Labels []int
	// NumLabels is the number of classes (output embedding length).
	NumLabels int
	// Hidden is the hidden-layer width of the paper's 3-layer GCN.
	Hidden int
	// Paper reports the corresponding full-scale characteristics from
	// Table VI, zero-valued for purely synthetic datasets.
	Paper PaperScale
}

// FeatureLen returns the input feature vector length f.
func (d *Dataset) FeatureLen() int { return d.Features.Cols }

// LayerWidths returns the paper's 3-layer GCN widths
// [f_in, hidden, numLabels].
func (d *Dataset) LayerWidths() []int {
	return []int{d.FeatureLen(), d.Hidden, d.NumLabels}
}

// AnalogSpec describes how to synthesize a laptop-scale analog of one of the
// paper's datasets.
type AnalogSpec struct {
	Name string
	// Scale is the RMAT scale (n = 2^Scale vertices).
	Scale int
	// EdgeFactor targets EdgeFactor*n directed edges before symmetrization
	// and deduplication.
	EdgeFactor int
	// Features, Hidden, Labels give the GCN layer widths.
	Features int
	Hidden   int
	Labels   int
	// Seed makes generation deterministic.
	Seed int64
	// Paper holds the Table VI characteristics being modeled.
	Paper PaperScale
}

// Analogs lists the synthetic stand-ins for Table VI. Average degree d and
// feature length f are scaled down together so the d/f ratio — the quantity
// every cost formula in §IV keys on — matches the paper's datasets:
//
//   - reddit:  d≈493, f=602  → d/f ≈ 0.82 (dense graph, wide features)
//   - amazon:  d≈24.6, f≈113 → d/f ≈ 0.22 (sparse graph, f ≫ d)
//   - protein: d≈121, f≈133  → d/f ≈ 0.91 (large dense graph)
var Analogs = []AnalogSpec{
	{
		Name: "reddit-sim", Scale: 12, EdgeFactor: 50,
		Features: 60, Hidden: 16, Labels: 41, Seed: 101,
		Paper: PaperScale{Vertices: 232965, Edges: 114848857, Features: 602, Labels: 41},
	},
	{
		Name: "amazon-sim", Scale: 14, EdgeFactor: 8,
		Features: 112, Hidden: 16, Labels: 24, Seed: 102,
		Paper: PaperScale{Vertices: 9430088, Edges: 231594310, Features: 300, Labels: 24},
	},
	{
		Name: "protein-sim", Scale: 14, EdgeFactor: 40,
		Features: 44, Hidden: 16, Labels: 72, Seed: 103,
		Paper: PaperScale{Vertices: 8745542, Edges: 1058120062, Features: 128, Labels: 256},
	},
}

// AnalogByName returns the spec with the given name.
func AnalogByName(name string) (AnalogSpec, error) {
	for _, s := range Analogs {
		if s.Name == name {
			return s, nil
		}
	}
	return AnalogSpec{}, fmt.Errorf("graph: unknown dataset analog %q", name)
}

// Build synthesizes the dataset: an R-MAT graph symmetrized to undirected
// form, random features (the paper itself randomly generates features for
// Amazon and Protein, §V-C), and uniform random labels.
// Quick returns the spec shrunk for a fast run — the one definition of the
// CLIs' -quick, the bench harness's Quick and `go test -short`: an eighth of
// the vertices, and a quarter of the edge factor where the graph is dense.
func (s AnalogSpec) Quick() AnalogSpec {
	s.Scale -= 3
	if s.EdgeFactor > 8 {
		s.EdgeFactor /= 4
	}
	return s
}

func (s AnalogSpec) Build() *Dataset {
	rng := rand.New(rand.NewSource(s.Seed))
	g := RMAT(s.Scale, s.EdgeFactor, DefaultRMAT, rng)
	// Symmetrize: GNN adjacencies are undirected in all three datasets.
	sym := New(g.NumVertices)
	sym.Edges = make([][2]int, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	feats := dense.New(sym.NumVertices, s.Features)
	feats.RandomInit(rng, 1.0)
	labels := make([]int, sym.NumVertices)
	for i := range labels {
		labels[i] = rng.Intn(s.Labels)
	}
	return &Dataset{
		Name:      s.Name,
		Graph:     sym,
		Features:  feats,
		Labels:    labels,
		NumLabels: s.Labels,
		Hidden:    s.Hidden,
		Paper:     s.Paper,
	}
}

// Synthetic builds an ad-hoc dataset over an arbitrary graph for tests and
// examples.
func Synthetic(name string, g *Graph, features, hidden, labels int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	feats := dense.New(g.NumVertices, features)
	feats.RandomInit(rng, 1.0)
	lab := make([]int, g.NumVertices)
	for i := range lab {
		lab[i] = rng.Intn(labels)
	}
	return &Dataset{
		Name:      name,
		Graph:     g,
		Features:  feats,
		Labels:    lab,
		NumLabels: labels,
		Hidden:    hidden,
	}
}
