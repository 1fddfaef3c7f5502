package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
)

// edgeProblem builds a symmetric problem with arbitrary layer widths.
func edgeProblem(t *testing.T, n int, widths []int, epochs int, seed int64) Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ErdosRenyi(n, 5, rng)
	sym := graph.New(n)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	ds := graph.Synthetic("edge", sym, widths[0], 1, widths[len(widths)-1], seed+1)
	return Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config:   nn.Config{Widths: widths, LR: 0.05, Epochs: epochs, Seed: seed + 2},
	}
}

// TestSingleLayerNetwork exercises L=1: the backward loop runs exactly once
// and never computes ∂L/∂H.
func TestSingleLayerNetwork(t *testing.T) {
	p := edgeProblem(t, 36, []int{6, 4}, 3, 51)
	checkEquivalence(t, NewOneD(4, testMach), p)
	checkEquivalence(t, NewOneFiveD(4, 2, testMach), p)
	checkEquivalence(t, NewTwoD(4, testMach), p)
	checkEquivalence(t, NewThreeD(8, testMach), p)
}

// TestDeepNetwork exercises L=5, deeper than the paper's 3-layer GCN
// ("deeper and wider networks are certainly possible", §V-A).
func TestDeepNetwork(t *testing.T) {
	p := edgeProblem(t, 40, []int{8, 7, 6, 5, 4, 3}, 2, 52)
	checkEquivalence(t, NewOneD(4, testMach), p)
	checkEquivalence(t, NewTwoD(4, testMach), p)
	checkEquivalence(t, NewThreeD(8, testMach), p)
}

// TestNarrowLayersOnWideGrid stresses feature dimensions smaller than the
// grid dimension: with √P = 4 and a 3-wide output, some ranks own zero
// feature columns.
func TestNarrowLayersOnWideGrid(t *testing.T) {
	p := edgeProblem(t, 48, []int{5, 3, 2}, 3, 53)
	checkEquivalence(t, NewTwoD(16, testMach), p)
}

// TestNarrowLayersOnMesh does the same for the 3D mesh (∛P = 3, widths
// not divisible by 3).
func TestNarrowLayersOnMesh(t *testing.T) {
	p := edgeProblem(t, 54, []int{5, 4, 2}, 2, 54)
	checkEquivalence(t, NewThreeD(27, testMach), p)
}

// TestZeroEpochs trains nothing and still returns a valid forward pass
// with the initial weights.
func TestZeroEpochs(t *testing.T) {
	p := edgeProblem(t, 30, []int{5, 4, 3}, 0, 55)
	serial, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Losses) != 0 {
		t.Fatalf("expected no losses, got %d", len(serial.Losses))
	}
	dist, err := NewTwoD(4, testMach).Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(dist.Output, serial.Output); d > equivTol {
		t.Fatalf("zero-epoch outputs differ by %v", d)
	}
}

// TestWideHiddenLayer exercises hidden width far above the input/output
// widths (the "wider networks improve accuracy" direction, §VI-a).
func TestWideHiddenLayer(t *testing.T) {
	p := edgeProblem(t, 32, []int{4, 40, 3}, 2, 56)
	checkEquivalence(t, NewOneD(4, testMach), p)
	checkEquivalence(t, NewTwoD(4, testMach), p)
}

// TestDisconnectedGraph includes isolated vertices, which only the
// self-loop added by normalization connects.
func TestDisconnectedGraph(t *testing.T) {
	g := graph.New(40)
	for i := 0; i < 20; i += 2 {
		g.AddUndirectedEdge(i, i+1)
	}
	// Vertices 20..39 are isolated.
	ds := graph.Synthetic("disconnected", g, 5, 4, 3, 57)
	p := Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config:   nn.Config{Widths: []int{5, 4, 3}, LR: 0.05, Epochs: 3, Seed: 58},
	}
	checkEquivalence(t, NewOneD(4, testMach), p)
	checkEquivalence(t, NewTwoD(4, testMach), p)
	checkEquivalence(t, NewThreeD(8, testMach), p)
}

// TestRanksExceedVerticesRejected covers the guard rails.
func TestRanksExceedVerticesRejected(t *testing.T) {
	p := edgeProblem(t, 6, []int{4, 3, 2}, 1, 59)
	if _, err := NewOneD(8, testMach).Train(p); err == nil {
		t.Fatal("1d should reject P > n")
	}
	if _, err := NewTwoD(64, testMach).Train(p); err == nil {
		t.Fatal("2d should reject √P > n")
	}
	if _, err := NewThreeD(1000, testMach).Train(p); err == nil {
		t.Fatal("3d should reject ∛P² > n")
	}
	if _, err := NewOneFiveD(16, 2, testMach).Train(p); err == nil {
		t.Fatal("1.5d should reject teams > n")
	}
	// The mesh holds whole rows only in its output layer.
	rowWise := edgeProblem(t, 36, []int{4, 3, 2}, 1, 59)
	rowWise.Config.Hidden = dense.LogSoftmax{}
	for _, tr := range []Trainer{NewTwoD(4, testMach), NewThreeD(8, testMach)} {
		if _, err := tr.Train(rowWise); err == nil || !strings.Contains(err.Error(), "row-wise") {
			t.Fatalf("%s should reject a row-wise hidden activation, got %v", tr.Name(), err)
		}
	}
	if _, err := NewOneD(4, testMach).Train(rowWise); err != nil {
		t.Fatalf("1d holds whole rows at every layer: %v", err)
	}
}

// TestLossMatchesAcrossEveryTrainerLongRun verifies stability over more
// epochs than the quick equivalence checks (gradient-descent trajectories
// amplify divergence if any reduction is wrong).
func TestLossMatchesAcrossEveryTrainerLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence run")
	}
	p := edgeProblem(t, 50, []int{7, 6, 4}, 25, 60)
	serial, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []Trainer{
		NewOneD(5, testMach),
		NewOneFiveD(6, 3, testMach),
		NewTwoD(9, testMach),
		NewThreeD(8, testMach),
	} {
		got, err := tr.Train(p)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for e := range serial.Losses {
			d := serial.Losses[e] - got.Losses[e]
			if d < -1e-7 || d > 1e-7 {
				t.Fatalf("%s diverges at epoch %d: %v vs %v", tr.Name(), e, got.Losses[e], serial.Losses[e])
			}
		}
	}
}

// TestOutputRowsEmptySubSlices: the mesh runs its output layer row-split
// inside each process row, each member holding its share of the row
// block's rows, and a row block with fewer rows than the row has members
// leaves some members none — 2D on 3 x 3 with n = 5 (blocks of 1, 2, 2
// rows) and 3D on 3 x 3 x 3 with n = 11 (sub-slices of 1 or 2 rows). At
// L = 1, 2 and 3, with the output layer in both product orders, the runs
// must stay within equivTol of serial — outputs, weights, losses and both
// accuracy curves — be bit-identical over loopback TCP, and allocate
// nothing in a steady-state epoch.
func TestOutputRowsEmptySubSlices(t *testing.T) {
	meshes := []struct {
		algo string
		p, n int
	}{
		{"2d", 9, 5},
		{"3d", 27, 11},
	}
	shapes := map[string][]int{
		"L=1":                 {4, 3},
		"L=2/aggregate-first": {3, 4, 5},
		"L=2/multiply-first":  {5, 4, 3},
		"L=3/aggregate-first": {4, 6, 5, 7},
		"L=3/multiply-first":  {4, 5, 6, 3},
	}
	for _, m := range meshes {
		for shape, widths := range shapes {
			t.Run(m.algo+"/"+shape, func(t *testing.T) {
				p := edgeProblem(t, m.n, widths, 3, 91)
				p.ValMask = make([]bool, m.n)
				for i := range p.ValMask {
					p.ValMask[i] = i%2 == 1
				}
				mesh, err := meshFor(m.algo, m.p)
				if err != nil {
					t.Fatal(err)
				}
				r := &meshRank{mesh: mesh, vBlk: partition.NewBlock1D(m.n, mesh.C)}
				empty := false
				for rank := 0; rank < m.p; rank++ {
					lo, hi := r.outRows(r.mesh.Coords(rank))
					empty = empty || lo == hi
				}
				if !empty {
					t.Fatal("no rank holds an empty output row range: the case tests nothing")
				}

				trainer := func() Trainer {
					tr, err := NewTrainer(m.algo, m.p, testMach)
					if err != nil {
						t.Fatal(err)
					}
					return tr
				}
				got := checkEquivalence(t, trainer(), p)
				requireSameRun(t, trainOverTCP(t, m.algo, m.p, 0, p), got)

				useWorkers(t, 1)
				if avg := steadyStateAllocs(t, trainer().(rankRunner), p, m.p); avg != 0 {
					t.Fatalf("steady-state epoch allocates %.1f times across %d ranks, want 0", avg, m.p)
				}
			})
		}
	}
}
