package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// TestDriftFailsTheRun: a rank whose epoch leaves the plan its second epoch
// recorded — here one extra compute charge on rank 1 in epoch 4 — fails the
// run at that epoch's end, with the ledger's drift naming the rank and the
// epoch; both rank types, the block-row and the mesh.
func TestDriftFailsTheRun(t *testing.T) {
	useWorkers(t, 1)
	for _, tr := range []rankRunner{NewOneD(4, testMach), NewTwoD(4, testMach)} {
		p := testProblem(t, 40, 6, 5, 4, 5, 91)
		err := tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
			eng := newEngine(ops, cfg, prob)
			eng.aggregateInput()
			weights := nn.InitWeights(cfg)
			for epoch := 1; epoch <= 5; epoch++ {
				eng.epoch(weights)
				if epoch == 4 && ops.rank() == 1 {
					switch o := ops.(type) {
					case *rowRank:
						o.comm.ChargeTime(comm.CatMisc, 1e-9)
					case *meshRank:
						o.comm.ChargeTime(comm.CatMisc, 1e-9)
					}
				}
				ops.endEpoch()
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%T: a run whose rank 1 left its plan in epoch 4 succeeded", tr)
		}
		for _, want := range []string{"rank 1 left its plan in epoch 4 ", "got ChargeTime misc"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%T: run failed with %q, which does not name %q", tr, err, want)
			}
		}
	}
}

// TestEveryRunFollowsItsPlan: every configuration a trainer runs repeats its
// second epoch's plan in every later epoch on every rank — the block-row
// and mesh trainers, the halo exchange, an LDG partition, a directed A,
// validation tracking, the drain vote and a resumed run — so no epoch
// from the third on may leave it.
func TestEveryRunFollowsItsPlan(t *testing.T) {
	useWorkers(t, 1)
	const epochs = 5
	base := func() Problem { return testProblem(t, 40, 6, 5, 4, epochs, 93) }
	directed := func() Problem {
		ds := graph.Synthetic("directed", graph.ErdosRenyi(36, 5, rand.New(rand.NewSource(19))), 6, 4, 3, 20)
		return Problem{A: sparse.RowStochastic(ds.Graph.Adjacency()), Features: ds.Features, Labels: ds.Labels,
			Config: nn.Config{Widths: []int{6, 4, 3}, LR: 0.05, Epochs: epochs, Seed: 21}}
	}
	validated := func() Problem {
		p := base()
		p.ValMask = make([]bool, p.A.Rows)
		for i := range p.ValMask {
			p.ValMask[i] = i%3 == 0
		}
		return p
	}
	draining := func() Problem { p := base(); p.Drain = func() bool { return false }; return p }
	halo := func(tr *rowTrainer) DistTrainer { tr.Halo = true; return tr }
	cases := []struct {
		name string
		tr   func() DistTrainer
		prob func() Problem
		ldg  bool
	}{
		{"1d", func() DistTrainer { return NewOneD(4, testMach) }, base, false},
		{"1d-halo", func() DistTrainer { return halo(NewOneD(4, testMach)) }, base, false},
		{"1d-halo-ldg", func() DistTrainer { return NewOneD(4, testMach) }, base, true},
		{"1.5d", func() DistTrainer { return NewOneFiveD(4, 2, testMach) }, base, false},
		{"1.5d-halo", func() DistTrainer { return halo(NewOneFiveD(4, 2, testMach)) }, base, false},
		{"2d", func() DistTrainer { return NewTwoD(4, testMach) }, base, false},
		{"3d", func() DistTrainer { return NewThreeD(8, testMach) }, base, false},
		{"1d-directed", func() DistTrainer { return NewOneD(4, testMach) }, directed, false},
		{"2d-directed", func() DistTrainer { return NewTwoD(4, testMach) }, directed, false},
		{"2d-validation", func() DistTrainer { return NewTwoD(4, testMach) }, validated, false},
		{"1d-drain", func() DistTrainer { return NewOneD(4, testMach) }, draining, false},
		{"3d-drain", func() DistTrainer { return NewThreeD(8, testMach) }, draining, false},
	}
	check := func(name string, tr DistTrainer) {
		t.Helper()
		for r := range tr.Cluster().Size() {
			if err := tr.Cluster().Ledger(r).Drift(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	for _, tc := range cases {
		tr, p := tc.tr(), tc.prob()
		if tc.ldg {
			var g *graph.Graph
			p, g = testProblemGraph(t, 40, 6, 5, 4, epochs, 93)
			if _, err := ConfigureRowDecomposition(tr, &p, g, "ldg", true, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Train(p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, tr)
	}
	// A run resumed at epoch 2 of 7 closes five epochs of its own.
	p := base()
	p.Config.Epochs, p.Checkpoint = 2, checkpoint.Options{Dir: t.TempDir()}
	if _, err := NewTwoD(4, testMach).Train(p); err != nil {
		t.Fatal(err)
	}
	p.Config.Epochs = 7
	tr := NewTwoD(4, testMach)
	if res, err := tr.Train(p); err != nil || res.ResumedEpoch != 2 {
		t.Fatalf("resumed run: %v, resumed at %v", err, res)
	}
	check("2d-resumed", tr)
}
