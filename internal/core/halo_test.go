package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rmatProblem builds a fixed symmetrized R-MAT training problem with
// uniform layer widths (so the average-f costmodel formulas are exact).
func rmatProblem(t *testing.T, scale, edgeFactor, f, epochs int, seed int64) (Problem, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RMAT(scale, edgeFactor, graph.DefaultRMAT, rng)
	sym := graph.New(g.NumVertices)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	ds := graph.Synthetic("rmat", sym, f, f, f, seed+1)
	return Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: []int{f, f, f},
			LR:     0.05,
			Epochs: epochs,
			Seed:   seed + 2,
		},
	}, sym
}

// TestHaloLedgerMatchesEdgecutBound is the ledger-vs-analytic contract:
// for a fixed R-MAT graph, the dense-comm words every rank of the
// sparsity-aware 1D trainer accrues must equal the costmodel
// edgecut-based prediction exactly — per rank (hence per-rank max via
// edgecut_P(A) = MaxRecvRows) and in total over ranks — with the forward
// fetch following the rᵢ of Aᵀ's block rows and the backward fetch the rᵢ of
// A's. On the symmetrized graph the two are one number; on the raw directed
// R-MAT (row-normalized) they come from the reversed graph and the graph,
// differ on every rank count below, and the second halo plan must account
// for the difference to the word.
func TestHaloLedgerMatchesEdgecutBound(t *testing.T) {
	const f, epochs = 8, 3
	sym, symG := rmatProblem(t, 7, 8, f, epochs, 71)
	dirG := graph.RMAT(7, 8, graph.DefaultRMAT, rand.New(rand.NewSource(71)))
	revG := graph.New(dirG.NumVertices)
	for _, e := range dirG.Edges {
		revG.AddEdge(e[1], e[0])
	}
	directed := sym
	directed.A = sparse.RowStochastic(dirG.Adjacency())
	for _, tc := range []struct {
		name     string
		p        Problem
		fwd, bwd *graph.Graph // whose rᵢ the forward and the backward fetch follow
	}{
		{"symmetric", sym, symG, symG},
		{"directed", directed, revG, dirG},
	} {
		p, n, widths := tc.p, tc.p.A.Rows, tc.p.Config.Widths
		for _, ranks := range []int{2, 4, 7} {
			tr := NewOneD(ranks, testMach)
			tr.Halo = true
			if _, err := tr.Train(p); err != nil {
				t.Fatal(err)
			}
			fwd := partition.Edgecut(tc.fwd, partition.BlockAssignment(n, ranks))
			bwd := partition.Edgecut(tc.bwd, partition.BlockAssignment(n, ranks))
			if twoPlans := tc.fwd != tc.bwd; twoPlans == slices.Equal(fwd.PerPartRecvRows, bwd.PerPartRecvRows) {
				t.Fatalf("%s P=%d: forward rᵢ %v, backward rᵢ %v: the case does not exercise what it names",
					tc.name, ranks, fwd.PerPartRecvRows, bwd.PerPartRecvRows)
			}

			var total, predTotal, maxGot, predMax int64
			for r := 0; r < ranks; r++ {
				got := tr.Cluster().Ledger(r).ModelWords[comm.CatDenseComm]
				want := costmodel.OneDHaloDenseWords(widths, ranks, fwd.PerPartRecvRows[r], bwd.PerPartRecvRows[r], epochs)
				if got != want {
					t.Fatalf("%s P=%d rank %d: ledger dcomm %d words, edgecut bound predicts %d (r_i=%d forward, %d backward)",
						tc.name, ranks, r, got, want, fwd.PerPartRecvRows[r], bwd.PerPartRecvRows[r])
				}
				total += got
				predTotal += want
				maxGot = max(maxGot, got)
				predMax = max(predMax, want)
			}
			if maxGot != predMax {
				t.Fatalf("%s P=%d: max dcomm %d words, prediction %d", tc.name, ranks, maxGot, predMax)
			}
			// Where one rᵢ serves both directions, the per-rank max is the
			// MaxRecvRows (= edgecut_P(A)) prediction.
			if tc.fwd == tc.bwd {
				if want := costmodel.OneDHaloDenseWords(widths, ranks, fwd.MaxRecvRows, fwd.MaxRecvRows, epochs); maxGot != want {
					t.Fatalf("%s P=%d: max dcomm %d words, edgecut_P(A)=%d predicts %d",
						tc.name, ranks, maxGot, fwd.MaxRecvRows, want)
				}
			}
			if got := tr.Cluster().Sum((*comm.Ledger).Reading).Words[comm.CatDenseComm]; got != predTotal || total != predTotal {
				t.Fatalf("%s P=%d: total dcomm %d words, prediction %d", tc.name, ranks, got, predTotal)
			}

			// Tie to the published formula: with uniform widths, the halo
			// component of the ledger is the 2·edgecut·f term of
			// costmodel.OneDSymmetric for one layer, rᵢ·f per direction:
			// the forward half counted once for the input layer (T¹ is
			// fetched once per run) and, for each of the other L−1 layers,
			// once per training forward plus the final inference forward;
			// the backward half once per epoch for each of those L−1.
			w := costmodel.Workload{N: n, NNZ: int64(p.A.NNZ()), F: f, Layers: len(widths) - 1}
			half := func(ri int) float64 {
				return (costmodel.OneDSymmetric(w, ranks, float64(ri)).Words - costmodel.OneDSymmetric(w, ranks, 0).Words) / float64(2*w.Layers)
			}
			for r := 0; r < ranks; r++ {
				got := tr.Cluster().Ledger(r).ModelWords[comm.CatDenseComm] -
					costmodel.OneDHaloDenseWords(widths, ranks, 0, 0, epochs)
				want := int64(math.Round(float64(1+(epochs+1)*(w.Layers-1))*half(fwd.PerPartRecvRows[r]) +
					float64(epochs*(w.Layers-1))*half(bwd.PerPartRecvRows[r])))
				if got != want {
					t.Fatalf("%s P=%d rank %d: halo component %d words, costmodel.OneDSymmetric edgecut term %d",
						tc.name, ranks, r, got, want)
				}
			}
		}
	}
}

// TestHaloReducesDenseWords: the point of the exchange — per-epoch
// dense-comm words drop strictly below the dense-broadcast baseline for
// both row decompositions, on the same problem.
func TestHaloReducesDenseWords(t *testing.T) {
	p, _ := rmatProblem(t, 7, 4, 8, 1, 73)
	mk := func(algo string, halo bool) func() DistTrainer {
		return func() DistTrainer {
			if algo == "1d" {
				tr := NewOneD(8, testMach)
				tr.Halo = halo
				return tr
			}
			tr := NewOneFiveD(8, 2, testMach)
			tr.Halo = halo
			return tr
		}
	}
	for _, algo := range []string{"1d", "1.5d"} {
		dense := perEpochWords(t, mk(algo, false), p)
		halo := perEpochWords(t, mk(algo, true), p)
		if halo[comm.CatDenseComm] >= dense[comm.CatDenseComm] {
			t.Fatalf("%s: halo dcomm %d words should be strictly below broadcast %d",
				algo, halo[comm.CatDenseComm], dense[comm.CatDenseComm])
		}
		// The per-epoch setup categories must not leak into the diff: the
		// plan exchange is one-time sparse traffic.
		if halo[comm.CatSparseComm] != 0 {
			t.Fatalf("%s: halo moves %d sparse words per epoch, want 0", algo, halo[comm.CatSparseComm])
		}
	}
}

// TestHaloSmartPartitionShrinksHalo: wiring a lower-edgecut partition into
// the trainer must shrink the measured halo words — the §IV-A-8 claim on
// a real trainer. The ring graph makes the contrast extreme: contiguous
// blocks cut 2 rows per rank, a random assignment cuts almost everything.
func TestHaloSmartPartitionShrinksHalo(t *testing.T) {
	n, f := 64, 6
	g := graph.Ring(n)
	ds := graph.Synthetic("ring", g, f, f, f, 5)
	base := Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config:   nn.Config{Widths: []int{f, f, f}, LR: 0.05, Epochs: 1, Seed: 6},
	}
	words := func(assign partition.Assignment) int64 {
		p, layout, _, err := PartitionProblem(base, assign)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewOneD(8, testMach)
		tr.Halo, tr.Layout = true, layout
		if _, err := tr.Train(p); err != nil {
			t.Fatal(err)
		}
		return tr.Cluster().Sum((*comm.Ledger).Reading).Words[comm.CatDenseComm]
	}
	rng := rand.New(rand.NewSource(8))
	smart := words(partition.BlockAssignment(n, 8))
	random := words(partition.RandomAssignment(n, 8, rng))
	if smart >= random {
		t.Fatalf("block partition on a ring should beat random: %d vs %d words", smart, random)
	}
}

// TestLayoutValidation: mismatched layouts are rejected before any rank
// starts.
func TestLayoutValidation(t *testing.T) {
	p := testProblem(t, 30, 5, 4, 3, 1, 76)
	tr := NewOneD(4, testMach)
	tr.Layout = partition.NewContig1D([]int{0, 10, 30}) // 2 blocks for 4 ranks
	if _, err := tr.Train(p); err == nil {
		t.Fatal("expected block-count mismatch error")
	}
	tr = NewOneD(2, testMach)
	tr.Layout = partition.NewContig1D([]int{0, 10, 29}) // covers 29 of 30
	if _, err := tr.Train(p); err == nil {
		t.Fatal("expected item-count mismatch error")
	}
	tf := NewOneFiveD(4, 2, testMach)
	tf.Layout = partition.NewContig1D([]int{0, 10, 20, 30}) // 3 blocks for 2 teams
	if _, err := tf.Train(p); err == nil {
		t.Fatal("expected team-count mismatch error")
	}
}

// TestPartitionProblemRoundTrip: relabeling plus RestoreRows reproduces
// the original-ordering output within float tolerance, and the masks and
// labels stay aligned with their vertices.
func TestPartitionProblemRoundTrip(t *testing.T) {
	base, g := testProblemGraph(t, 45, 6, 5, 4, 3, 77)
	mask := make([]bool, 45)
	for i := 0; i < 45; i += 2 {
		mask[i] = true
	}
	base.TrainMask = mask
	assign := partition.LDG(g, 4, rand.New(rand.NewSource(9)))
	relabeled, layout, order, err := PartitionProblem(base, assign)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Blocks() != 4 || layout.Items() != 45 {
		t.Fatalf("layout %d blocks / %d items", layout.Blocks(), layout.Items())
	}
	for newIdx, oldIdx := range order {
		if relabeled.Labels[newIdx] != base.Labels[oldIdx] ||
			relabeled.TrainMask[newIdx] != base.TrainMask[oldIdx] {
			t.Fatalf("vertex %d->%d lost its label or mask", oldIdx, newIdx)
		}
	}
	want, err := NewSerial().Train(base)
	if err != nil {
		t.Fatal(err)
	}
	// A relabeled problem is a view of H⁰: the serial and mesh trainers
	// gather its features themselves, the block-row trainer its own rows.
	for _, tr := range []Trainer{NewSerial(), NewTwoD(4, testMach), NewOneD(4, testMach)} {
		got, err := tr.Train(relabeled)
		if err != nil {
			t.Fatal(err)
		}
		restored := RestoreRows(got.Output, order)
		if d := dense.MaxAbsDiff(restored, want.Output); d > equivTol {
			t.Fatalf("%s: restored output deviates from original ordering by %v", tr.Name(), d)
		}
	}
	// Relabeling a relabeled problem composes the two orders.
	again, _, order2, err := PartitionProblem(relabeled, partition.RandomAssignment(45, 4, rand.New(rand.NewSource(10))))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSerial().Train(again)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(RestoreRows(RestoreRows(got.Output, order2), order), want.Output); d > equivTol {
		t.Fatalf("twice-relabeled output deviates from original ordering by %v", d)
	}
}
