package core

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
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

// overlapTrainers enumerates every distributed configuration the overlap
// mode covers, as constructors taking the overlap flag.
func overlapTrainers() []struct {
	name string
	mk   func(overlap bool) Trainer
} {
	return []struct {
		name string
		mk   func(overlap bool) Trainer
	}{
		{"1d", func(ov bool) Trainer {
			tr := NewOneD(5, testMach)
			tr.Overlap = ov
			return tr
		}},
		{"1d-halo", func(ov bool) Trainer {
			tr := NewOneD(5, testMach)
			tr.Halo, tr.Overlap = true, ov
			return tr
		}},
		{"1.5d", func(ov bool) Trainer {
			tr := NewOneFiveD(6, 2, testMach)
			tr.Overlap = ov
			return tr
		}},
		{"1.5d-halo", func(ov bool) Trainer {
			tr := NewOneFiveD(6, 2, testMach)
			tr.Halo, tr.Overlap = true, ov
			return tr
		}},
		{"2d", func(ov bool) Trainer {
			tr := NewTwoD(9, testMach)
			tr.Overlap = ov
			return tr
		}},
		{"3d", func(ov bool) Trainer {
			tr := NewThreeD(8, testMach)
			tr.Overlap = ov
			return tr
		}},
	}
}

// TestEngineOverlapEquivalence extends the engine contract matrix with
// overlap ∈ {on, off}: at depth 4 with a train mask, under every
// optimizer, every distributed configuration must produce byte-identical
// outputs, weights, and losses with overlap on and off — the double
// buffers change when data arrives, never what is computed — and the
// overlapped run must still match the serial reference within tolerance.
func TestEngineOverlapEquivalence(t *testing.T) {
	for _, optimizer := range []string{"sgd", "momentum", "adam"} {
		t.Run(optimizer, func(t *testing.T) {
			p := deepMaskedProblem(t, 101)
			p.Config.Optimizer = optimizer
			for _, tc := range overlapTrainers() {
				ov := tc.mk(true)
				checkEquivalence(t, ov, p)
				got, err := ov.Train(p)
				if err != nil {
					t.Fatalf("%s overlap: %v", tc.name, err)
				}
				want, err := tc.mk(false).Train(p)
				if err != nil {
					t.Fatalf("%s sync: %v", tc.name, err)
				}
				if d := dense.MaxAbsDiff(got.Output, want.Output); d != 0 {
					t.Fatalf("%s overlap output deviates from sync by %v", tc.name, d)
				}
				for l := range want.Weights {
					if d := dense.MaxAbsDiff(got.Weights[l], want.Weights[l]); d != 0 {
						t.Fatalf("%s overlap W[%d] deviates from sync by %v", tc.name, l, d)
					}
				}
				for e := range want.Losses {
					if got.Losses[e] != want.Losses[e] {
						t.Fatalf("%s overlap loss diverges at epoch %d", tc.name, e)
					}
				}
			}
		})
	}
}

// TestOverlapWordCountsUnchanged: overlap mode must move exactly the same
// modeled words per category as the synchronous mode — it changes when
// data arrives, not what is sent.
func TestOverlapWordCountsUnchanged(t *testing.T) {
	p := testProblem(t, 256, 16, 16, 8, 2, 73)
	for _, tc := range overlapTrainers() {
		sync := tc.mk(false)
		ov := tc.mk(true)
		if _, err := sync.Train(p); err != nil {
			t.Fatalf("%s sync: %v", tc.name, err)
		}
		if _, err := ov.Train(p); err != nil {
			t.Fatalf("%s overlap: %v", tc.name, err)
		}
		syncWords := sync.(DistTrainer).Cluster().MaxWordsByCategory()
		ovWords := ov.(DistTrainer).Cluster().MaxWordsByCategory()
		for _, cat := range comm.AllCategories {
			if syncWords[cat] != ovWords[cat] {
				t.Fatalf("%s %s words: sync %d vs overlap %d",
					tc.name, cat, syncWords[cat], ovWords[cat])
			}
		}
	}
}

// TestOverlapStrictlyImprovesEpochTime is the headline acceptance check:
// with overlap on, the modeled run time (critical-path MaxTotalTime) must
// be strictly lower than the bulk-synchronous run for every pipelined
// broadcast configuration, and the hidden communication time must be
// positive. (The halo modes hide the fetch behind interior rows, which a
// random graph barely has; see TestOverlapHaloImprovesWithPartitioner.)
func TestOverlapStrictlyImprovesEpochTime(t *testing.T) {
	p := testProblem(t, 256, 16, 16, 8, 3, 74)
	for _, tc := range overlapTrainers() {
		if tc.name == "1d-halo" || tc.name == "1.5d-halo" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			sync := tc.mk(false)
			ov := tc.mk(true)
			if _, err := sync.Train(p); err != nil {
				t.Fatal(err)
			}
			if _, err := ov.Train(p); err != nil {
				t.Fatal(err)
			}
			syncTime := sync.(DistTrainer).Cluster().MaxTotalTime()
			ovTime := ov.(DistTrainer).Cluster().MaxTotalTime()
			if !(ovTime < syncTime) {
				t.Fatalf("overlap %v not strictly below sync %v", ovTime, syncTime)
			}
			if hidden := ov.(DistTrainer).Cluster().MaxHiddenCommTime(); hidden <= 0 {
				t.Fatalf("no communication was hidden (hidden=%v)", hidden)
			}
			if sync.(DistTrainer).Cluster().MaxHiddenCommTime() != 0 {
				t.Fatal("synchronous run must hide nothing")
			}
		})
	}
}

// TestOverlapHaloImprovesWithPartitioner: the interior/frontier split only
// has rows to hide the fetch behind when the partition gives ranks an
// interior — on a community graph under LDG, the overlapped halo trainers
// must strictly beat their synchronous halo runs, while never exceeding
// them on any graph.
func TestOverlapHaloImprovesWithPartitioner(t *testing.T) {
	p, g := communityProblemGraph(t)
	for _, name := range []string{"1d", "1.5d"} {
		t.Run(name, func(t *testing.T) {
			run := func(overlap bool) float64 {
				tr, err := NewTrainer(name, 6, testMach)
				if err != nil {
					t.Fatal(err)
				}
				prob := p
				if _, err := ConfigureRowDecomposition(tr, &prob, g, "ldg", true, 7); err != nil {
					t.Fatal(err)
				}
				if err := SetOverlap(tr, overlap); err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Train(prob); err != nil {
					t.Fatal(err)
				}
				return tr.(DistTrainer).Cluster().MaxTotalTime()
			}
			syncTime, ovTime := run(false), run(true)
			if !(ovTime < syncTime) {
				t.Fatalf("halo overlap %v not strictly below sync %v", ovTime, syncTime)
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
		tr := tc.mk(true)
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

// TestSetOverlap covers the option plumbing.
func TestSetOverlap(t *testing.T) {
	for _, tc := range overlapTrainers() {
		tr := tc.mk(false)
		if err := SetOverlap(tr, true); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if err := SetOverlap(NewSerial(), true); err == nil {
		t.Fatal("serial trainer must reject overlap")
	}
	if err := SetOverlap(NewSerial(), false); err != nil {
		t.Fatalf("overlap=false must be accepted everywhere: %v", err)
	}
}

// TestOverlapPartitionedHaloEquivalence: overlap composes with the
// partitioner-driven halo layouts — the configuration the benchmark
// harness runs.
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
		if err := SetOverlap(tr, true); err != nil {
			t.Fatal(err)
		}
		got, err := tr.Train(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		syncTr, err := NewTrainer(name, 6, testMach)
		if err != nil {
			t.Fatal(err)
		}
		p2 := base
		if _, err := ConfigureRowDecomposition(syncTr, &p2, g, "ldg", true, 7); err != nil {
			t.Fatal(err)
		}
		want, err := syncTr.Train(p2)
		if err != nil {
			t.Fatal(err)
		}
		if d := dense.MaxAbsDiff(got.Output, want.Output); d != 0 {
			t.Fatalf("%s partitioned halo overlap deviates by %v", name, d)
		}
	}
}

// TestOverlapRanksVariety exercises uneven block sizes and rank counts
// (prime P, non-square teams) under overlap for shape bugs.
func TestOverlapRanksVariety(t *testing.T) {
	p := testProblem(t, 97, 8, 7, 4, 2, 76)
	// The subtest names are the type names the constructors had before the
	// trainers became one block-row and one mesh type; they stay so the
	// suite's test ids do.
	for _, tc := range []struct {
		name string
		tr   Trainer
	}{
		{"*core.OneD", func() Trainer { t := NewOneD(7, testMach); t.Overlap = true; return t }()},
		{"*core.OneD", func() Trainer { t := NewOneD(7, testMach); t.Halo, t.Overlap = true, true; return t }()},
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(9, 3, testMach); t.Overlap = true; return t }()},
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(9, 3, testMach); t.Halo, t.Overlap = true, true; return t }()},
		// c² > P: layers 2..3 own no stages and must not prefetch one.
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(8, 4, testMach); t.Overlap = true; return t }()},
		{"*core.OneFiveD", func() Trainer { t := NewOneFiveD(8, 4, testMach); t.Halo, t.Overlap = true, true; return t }()},
		{"*core.TwoD", func() Trainer { t := NewTwoD(4, testMach); t.Overlap = true; return t }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkEquivalence(t, tc.tr, p)
		})
	}
}
