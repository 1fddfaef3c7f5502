package core

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
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
		fast := fastTr.(DistTrainer).Cluster().Max((*comm.Ledger).Reading)
		slow := slowTr.(DistTrainer).Cluster().Max((*comm.Ledger).Reading)
		for cat := range comm.NumCategories {
			if fast.Words[cat] != slow.Words[cat] {
				t.Fatalf("%s %s words: fast %d vs slow %d",
					tc.name, cat, fast.Words[cat], slow.Words[cat])
			}
		}
		if fast.Hidden == slow.Hidden && fast.Hidden > 0 {
			t.Fatalf("%s: hidden time %v did not move with the network", tc.name, fast.Hidden)
		}
	}
}

// TestOverlapStrictlyImprovesEpochTime is the headline acceptance check:
// within one run, the overlapped reading of the ledgers (the critical path,
// Reading.Elapsed, max over ranks) must be strictly below their
// bulk-synchronous reading (Reading.Bulk) for every pipelined broadcast configuration, and the
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
			r := tr.(DistTrainer).Cluster().Max((*comm.Ledger).Reading)
			if elapsed, bulk := r.Elapsed, r.Bulk; !(elapsed < bulk) {
				t.Fatalf("overlapped %v not strictly below bulk-synchronous %v", elapsed, bulk)
			}
			if hidden := r.Hidden; hidden <= 0 {
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
			r := tr.(DistTrainer).Cluster().Max((*comm.Ledger).Reading)
			if elapsed, bulk := r.Elapsed, r.Bulk; !(elapsed < bulk) {
				t.Fatalf("halo overlapped %v not strictly below bulk-synchronous %v", elapsed, bulk)
			}
			if hidden := r.Hidden; hidden <= 0 {
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
			l := cl.Ledger(rank).Reading()
			commT := l.Time[comm.CatSparseComm] + l.Time[comm.CatDenseComm] + l.Time[comm.CatTranspose]
			comp := l.Bulk - commT
			if l.Elapsed < comp {
				t.Fatalf("%s rank %d: elapsed %v below compute %v", tc.name, rank, l.Elapsed, comp)
			}
			if l.Elapsed < commT {
				t.Fatalf("%s rank %d: elapsed %v below comm %v", tc.name, rank, l.Elapsed, commT)
			}
			if l.Elapsed > l.Bulk+1e-12*l.Bulk {
				t.Fatalf("%s rank %d: elapsed %v above bulk-synchronous %v", tc.name, rank, l.Elapsed, l.Bulk)
			}
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
