package core

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
)

// communityProblemGraph builds a community-structured training problem:
// under a smart partitioner most rows keep all their neighbors in-part,
// giving the halo trainers a real interior to hide the fetch behind.
func communityProblemGraph(t *testing.T) (Problem, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g := graph.CommunityRMAT(12, 5, 8, 1, rng) // 12 communities of 32 vertices
	ds := graph.Synthetic("community", g, 12, 10, 6, 10)
	return Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: []int{12, 10, 6},
			LR:     0.05,
			Epochs: 2,
			Seed:   11,
		},
	}, g
}

// overlapTrainers enumerates every distributed configuration whose
// collectives the pipelined schedule keeps in flight behind compute.
func overlapTrainers() []struct {
	name string
	mk   func() Trainer
} {
	return overlapTrainersOn(testMach)
}

// overlapTrainersOn is overlapTrainers on machine m.
func overlapTrainersOn(m costmodel.Machine) []struct {
	name string
	mk   func() Trainer
} {
	return []struct {
		name string
		mk   func() Trainer
	}{
		{"1d", func() Trainer { return NewOneD(5, m) }},
		{"1d-halo", func() Trainer {
			tr := NewOneD(5, m)
			tr.Halo = true
			return tr
		}},
		{"1.5d", func() Trainer { return NewOneFiveD(6, 2, m) }},
		{"1.5d-halo", func() Trainer {
			tr := NewOneFiveD(6, 2, m)
			tr.Halo = true
			return tr
		}},
		{"2d", func() Trainer { return NewTwoD(9, m) }},
		{"3d", func() Trainer { return NewThreeD(8, m) }},
	}
}

// slowNetMach is testMach with a network a thousand times slower, so every
// collective lands at a different point of the timeline and a different
// share of it hides behind compute.
var slowNetMach = func() costmodel.Machine {
	m := testMach
	m.Name = "slow-net"
	m.Alpha *= 1000
	m.Beta *= 1000
	return m
}()

// TestEngineOverlapEquivalence: at depth 4 with a train mask, under every
// optimizer, every distributed configuration must produce byte-identical
// outputs, weights and losses whether its collectives arrive early or late
// on the timeline — the double buffers change when data arrives, never
// what is computed. (TestEngineCrossAlgorithmEquivalence holds the same
// matrix to the serial reference.)
func TestEngineOverlapEquivalence(t *testing.T) {
	for _, optimizer := range []string{"sgd", "momentum", "adam"} {
		t.Run(optimizer, func(t *testing.T) {
			p := deepMaskedProblem(t, 101)
			p.Config.Optimizer = optimizer
			slow := overlapTrainersOn(slowNetMach)
			for i, tc := range overlapTrainers() {
				fastTr, slowTr := tc.mk(), slow[i].mk()
				want, err := fastTr.Train(p)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got, err := slowTr.Train(p)
				if err != nil {
					t.Fatalf("%s slow network: %v", tc.name, err)
				}
				if fast, late := fastTr.(DistTrainer).Cluster().MaxElapsed(), slowTr.(DistTrainer).Cluster().MaxElapsed(); !(late > fast) {
					t.Fatalf("%s: slow-network timeline %v not behind %v", tc.name, late, fast)
				}
				if d := dense.MaxAbsDiff(got.Output, want.Output); d != 0 {
					t.Fatalf("%s slow-network output deviates by %v", tc.name, d)
				}
				for l := range want.Weights {
					if d := dense.MaxAbsDiff(got.Weights[l], want.Weights[l]); d != 0 {
						t.Fatalf("%s slow-network W[%d] deviates by %v", tc.name, l, d)
					}
				}
				for e := range want.Losses {
					if got.Losses[e] != want.Losses[e] {
						t.Fatalf("%s slow-network loss diverges at epoch %d", tc.name, e)
					}
				}
			}
		})
	}
}

// TestOverlapWordCountsUnchanged: how much of a collective hides behind
// compute must not change what it sends — every configuration moves
// exactly the same modeled words per category on a fast and a slow
// network, while the hidden time differs.
func TestOverlapWordCountsUnchanged(t *testing.T) {
	p := testProblem(t, 256, 16, 16, 8, 2, 73)
	slow := overlapTrainersOn(slowNetMach)
	for i, tc := range overlapTrainers() {
		fastTr, slowTr := tc.mk(), slow[i].mk()
		if _, err := fastTr.Train(p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := slowTr.Train(p); err != nil {
			t.Fatalf("%s slow network: %v", tc.name, err)
		}
		fastCl, slowCl := fastTr.(DistTrainer).Cluster(), slowTr.(DistTrainer).Cluster()
		fastWords, slowWords := fastCl.MaxWordsByCategory(), slowCl.MaxWordsByCategory()
		for _, cat := range comm.AllCategories {
			if fastWords[cat] != slowWords[cat] {
				t.Fatalf("%s %s words: fast %d vs slow %d",
					tc.name, cat, fastWords[cat], slowWords[cat])
			}
		}
		if fastCl.MaxHiddenCommTime() == slowCl.MaxHiddenCommTime() && fastCl.MaxHiddenCommTime() > 0 {
			t.Fatalf("%s: hidden time %v did not move with the network", tc.name, fastCl.MaxHiddenCommTime())
		}
	}
}

// TestOverlapStrictlyImprovesEpochTime is the headline acceptance check:
// within one run, the overlapped reading of the ledger (the critical-path
// MaxElapsed) must be strictly below its bulk-synchronous reading
// (MaxTotalTime) for every pipelined broadcast configuration, and the
// hidden communication time must be positive. (The halo modes hide the
// fetch behind interior rows, which a random graph barely has; see
// TestOverlapHaloImprovesWithPartitioner.)
func TestOverlapStrictlyImprovesEpochTime(t *testing.T) {
	p := testProblem(t, 256, 16, 16, 8, 3, 74)
	for _, tc := range overlapTrainers() {
		if tc.name == "1d-halo" || tc.name == "1.5d-halo" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.mk()
			if _, err := tr.Train(p); err != nil {
				t.Fatal(err)
			}
			cl := tr.(DistTrainer).Cluster()
			if elapsed, bulk := cl.MaxElapsed(), cl.MaxTotalTime(); !(elapsed < bulk) {
				t.Fatalf("overlapped %v not strictly below bulk-synchronous %v", elapsed, bulk)
			}
			if hidden := cl.MaxHiddenCommTime(); hidden <= 0 {
				t.Fatalf("no communication was hidden (hidden=%v)", hidden)
			}
		})
	}
}

// TestOverlapHaloImprovesWithPartitioner: the interior/frontier split only
// has rows to hide the fetch behind when the partition gives ranks an
// interior — on a community graph under LDG, the halo trainers' overlapped
// reading must be strictly below their bulk-synchronous one, with
// communication hidden.
func TestOverlapHaloImprovesWithPartitioner(t *testing.T) {
	p, g := communityProblemGraph(t)
	for _, name := range []string{"1d", "1.5d"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTrainer(name, 6, testMach)
			if err != nil {
				t.Fatal(err)
			}
			prob := p
			if _, err := ConfigureRowDecomposition(tr, &prob, g, "ldg", true, 7); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Train(prob); err != nil {
				t.Fatal(err)
			}
			cl := tr.(DistTrainer).Cluster()
			if elapsed, bulk := cl.MaxElapsed(), cl.MaxTotalTime(); !(elapsed < bulk) {
				t.Fatalf("halo overlapped %v not strictly below bulk-synchronous %v", elapsed, bulk)
			}
			if hidden := cl.MaxHiddenCommTime(); hidden <= 0 {
				t.Fatalf("no communication was hidden (hidden=%v)", hidden)
			}
		})
	}
}

// TestOverlapTimelineNeverBelowLowerBounds: the critical path can never be
// shorter than either resource alone — per rank, elapsed ≥ total compute
// charged and elapsed ≥ total communication charged (the network
// serializes in-flight spans).
func TestOverlapTimelineNeverBelowLowerBounds(t *testing.T) {
	p := testProblem(t, 256, 16, 16, 8, 2, 75)
	for _, tc := range overlapTrainers() {
		tr := tc.mk()
		if _, err := tr.Train(p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cl := tr.(DistTrainer).Cluster()
		for rank := 0; rank < cl.Size(); rank++ {
			l := cl.Ledger(rank)
			comp := l.TotalTime() - l.CommTime()
			if l.Elapsed() < comp {
				t.Fatalf("%s rank %d: elapsed %v below compute %v", tc.name, rank, l.Elapsed(), comp)
			}
			if l.Elapsed() < l.CommTime() {
				t.Fatalf("%s rank %d: elapsed %v below comm %v", tc.name, rank, l.Elapsed(), l.CommTime())
			}
			if l.Elapsed() > l.TotalTime()+1e-12*l.TotalTime() {
				t.Fatalf("%s rank %d: elapsed %v above bulk-synchronous %v", tc.name, rank, l.Elapsed(), l.TotalTime())
			}
		}
	}
}

// TestOverlapPartitionedHaloEquivalence: the interior/frontier split
// composes with the partitioner-driven halo layouts — the configuration
// the benchmark harness runs — and is bit-identical to the pipelined
// broadcast over the same layout.
func TestOverlapPartitionedHaloEquivalence(t *testing.T) {
	base, g := deepMaskedProblemGraph(t, 102)
	for _, name := range []string{"1d", "1.5d"} {
		tr, err := NewTrainer(name, 6, testMach)
		if err != nil {
			t.Fatal(err)
		}
		p := base
		if _, err := ConfigureRowDecomposition(tr, &p, g, "ldg", true, 7); err != nil {
			t.Fatal(err)
		}
		got, err := tr.Train(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bcast, err := NewTrainer(name, 6, testMach)
		if err != nil {
			t.Fatal(err)
		}
		p2 := base
		if _, err := ConfigureRowDecomposition(bcast, &p2, g, "ldg", false, 7); err != nil {
			t.Fatal(err)
		}
		want, err := bcast.Train(p2)
		if err != nil {
			t.Fatal(err)
		}
		if d := dense.MaxAbsDiff(got.Output, want.Output); d != 0 {
			t.Fatalf("%s partitioned halo deviates from broadcast by %v", name, d)
		}
	}
}

// TestOverlapRanksVariety exercises uneven block sizes and rank counts
// (prime P, non-square teams) in the pipelined schedule for shape bugs.
func TestOverlapRanksVariety(t *testing.T) {
	p := testProblem(t, 97, 8, 7, 4, 2, 76)
	// The subtest names are the type names the constructors had before the
	// trainers became one block-row and one mesh type; they stay so the
	// suite's test ids do.
	for _, tc := range []struct {
		name string
		tr   Trainer
	}{
		{"*core.OneD", NewOneD(7, testMach)},
		{"*core.OneD", func() Trainer { t := NewOneD(7, testMach); t.Halo = true; return t }()},
		{"*core.OneFiveD", NewOneFiveD(9, 3, testMach)},
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(9, 3, testMach); t.Halo = true; return t }()},
		// c² > P: layers 2..3 own no stages and must not prefetch one.
		{"*core.OneFiveD", NewOneFiveD(8, 4, testMach)},
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(8, 4, testMach); t.Halo = true; return t }()},
		{"*core.TwoD", NewTwoD(4, testMach)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkEquivalence(t, tc.tr, p)
		})
	}
}
