package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/partition"
)

// deepMaskedProblemGraph builds a 4-weight-layer problem (depth > the
// paper's 3-layer GCN) with a semi-supervised train mask, the
// configuration the engine contract test exercises, plus its graph for
// partitioner-driven variants.
func deepMaskedProblemGraph(t *testing.T, seed int64) (Problem, *graph.Graph) {
	t.Helper()
	p, g := testProblemGraph(t, 48, 8, 7, 4, 4, seed)
	p.Config.Widths = []int{8, 7, 6, 5, 4}
	mask := make([]bool, 48)
	for i := 0; i < 48; i += 3 {
		mask[i] = true
	}
	p.TrainMask = mask
	return p, g
}

func deepMaskedProblem(t *testing.T, seed int64) Problem {
	t.Helper()
	p, _ := deepMaskedProblemGraph(t, seed)
	return p
}

// TestEngineCrossAlgorithmEquivalence is the engine contract: a 4-layer
// network with a train mask, trained under every optimizer on every
// distributed configuration — the four algorithms and the halo exchange of
// the row ones — must match the serial reference within float tolerance:
// the paper's §V-A exactness claim, at depth > 3, for update rules beyond
// plain SGD, and with every collective pipelined behind compute.
func TestEngineCrossAlgorithmEquivalence(t *testing.T) {
	for _, optimizer := range []string{"sgd", "momentum", "adam"} {
		t.Run(optimizer, func(t *testing.T) {
			p := deepMaskedProblem(t, 101)
			p.Config.Optimizer = optimizer
			for _, tc := range overlapTrainers() {
				checkEquivalence(t, tc.mk(), p)
			}
		})
	}
}

// TestEngineHaloCrossAlgorithmEquivalence extends the engine contract to
// the sparsity-aware halo exchange: at depth 4, under every optimizer and
// both partitioners, the halo-exchange 1D/1.5D trainers must be
// bit-identical to their dense-broadcast variants and match the serial
// reference within float tolerance.
func TestEngineHaloCrossAlgorithmEquivalence(t *testing.T) {
	for _, optimizer := range []string{"sgd", "momentum", "adam"} {
		for _, pname := range []string{"random", "ldg"} {
			t.Run(optimizer+"/"+pname, func(t *testing.T) {
				base, g := deepMaskedProblemGraph(t, 101)
				base.Config.Optimizer = optimizer
				partitioner, err := partition.ByName(pname)
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []struct {
					mk     func(layout partition.Contig1D, halo bool) Trainer
					blocks int
				}{
					{func(l partition.Contig1D, halo bool) Trainer {
						tr := NewOneD(5, testMach)
						tr.Layout, tr.Halo = l, halo
						return tr
					}, 5},
					{func(l partition.Contig1D, halo bool) Trainer {
						tr := NewOneFiveD(6, 2, testMach)
						tr.Layout, tr.Halo = l, halo
						return tr
					}, 3},
				} {
					assign := partitioner(g, cfg.blocks, rand.New(rand.NewSource(7)))
					p, layout, _, err := PartitionProblem(base, assign)
					if err != nil {
						t.Fatal(err)
					}
					halo := cfg.mk(layout, true)
					// Serial-reference agreement within float tolerance.
					checkEquivalence(t, halo, p)
					// Bit-identity with the dense-broadcast variant.
					got, err := halo.Train(p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cfg.mk(layout, false).Train(p)
					if err != nil {
						t.Fatal(err)
					}
					if d := dense.MaxAbsDiff(got.Output, want.Output); d != 0 {
						t.Fatalf("%s halo output deviates from broadcast by %v", halo.Name(), d)
					}
					for l := range want.Weights {
						if d := dense.MaxAbsDiff(got.Weights[l], want.Weights[l]); d != 0 {
							t.Fatalf("%s halo W[%d] deviates from broadcast by %v", halo.Name(), l, d)
						}
					}
					for e := range want.Losses {
						if got.Losses[e] != want.Losses[e] {
							t.Fatalf("%s halo loss diverges at epoch %d", halo.Name(), e)
						}
					}
				}
			})
		}
	}
}

// TestEngineAccuracyTracking: with a validation mask set, every algorithm
// reports identical per-epoch train/val accuracy curves (they compute the
// same argmax over the same replicated outputs).
func TestEngineAccuracyTracking(t *testing.T) {
	p := deepMaskedProblem(t, 103)
	val := make([]bool, 48)
	for i := 1; i < 48; i += 3 {
		val[i] = true
	}
	p.ValMask = val

	want, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.TrainAccuracy) != p.Config.Epochs || len(want.ValAccuracy) != p.Config.Epochs {
		t.Fatalf("serial tracked %d/%d epochs, want %d",
			len(want.TrainAccuracy), len(want.ValAccuracy), p.Config.Epochs)
	}
	for _, a := range append(append([]float64{}, want.TrainAccuracy...), want.ValAccuracy...) {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy out of range: %v", a)
		}
	}
	for _, tr := range []Trainer{
		NewOneD(4, testMach),
		NewOneFiveD(4, 2, testMach),
		NewTwoD(4, testMach),
		NewThreeD(8, testMach),
	} {
		got, err := tr.Train(p)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for e := range want.TrainAccuracy {
			if got.TrainAccuracy[e] != want.TrainAccuracy[e] {
				t.Fatalf("%s train accuracy diverges at epoch %d: %v vs %v",
					tr.Name(), e, got.TrainAccuracy[e], want.TrainAccuracy[e])
			}
			if got.ValAccuracy[e] != want.ValAccuracy[e] {
				t.Fatalf("%s val accuracy diverges at epoch %d: %v vs %v",
					tr.Name(), e, got.ValAccuracy[e], want.ValAccuracy[e])
			}
		}
	}
}

// TestEngineAccuracyTrackingElementwiseOutput covers the 2D/3D gather
// fallback: with an element-wise output activation there is no cached
// full-row H, so the accuracy counters must all-gather the output rows
// themselves.
func TestEngineAccuracyTrackingElementwiseOutput(t *testing.T) {
	p := maskedProblem(t, 104)
	p.Config.Output = dense.Identity{}
	val := make([]bool, 45)
	val[3], val[9] = true, true
	p.ValMask = val
	want, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []Trainer{NewTwoD(9, testMach), NewThreeD(8, testMach)} {
		got, err := tr.Train(p)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for e := range want.ValAccuracy {
			if got.ValAccuracy[e] != want.ValAccuracy[e] {
				t.Fatalf("%s val accuracy diverges at epoch %d", tr.Name(), e)
			}
		}
	}
}

// TestEngineTrackingOffByDefault: without a ValMask the engine must not
// spend any communication or work on accuracy curves.
func TestEngineTrackingOffByDefault(t *testing.T) {
	p := maskedProblem(t, 105)
	res, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainAccuracy != nil || res.ValAccuracy != nil {
		t.Fatal("accuracy tracking should be off without a ValMask")
	}
}

// TestValMaskDerivesTrainMask: a ValMask without an explicit TrainMask
// must train on the complement — held-out vertices never leak into the
// loss.
func TestValMaskDerivesTrainMask(t *testing.T) {
	p := testProblem(t, 45, 7, 5, 4, 3, 109)
	val := make([]bool, 45)
	train := make([]bool, 45)
	for i := range val {
		val[i] = i%3 == 0
		train[i] = !val[i]
	}

	derived := p
	derived.ValMask = val
	explicit := p
	explicit.ValMask = val
	explicit.TrainMask = train

	a, err := NewSerial().Train(derived)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSerial().Train(explicit)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Losses {
		if a.Losses[e] != b.Losses[e] {
			t.Fatalf("derived train mask diverges from explicit complement at epoch %d", e)
		}
	}
	// Sanity: the derived run must differ from training on all vertices.
	full, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Losses[0] == full.Losses[0] {
		t.Fatal("val vertices leaked into the loss")
	}

	// An all-true ValMask leaves nothing to train on and must error.
	bad := p
	bad.ValMask = make([]bool, 45)
	for i := range bad.ValMask {
		bad.ValMask[i] = true
	}
	if _, err := NewSerial().Train(bad); err == nil {
		t.Fatal("expected error for all-true ValMask")
	}
}

// TestValMaskValidation: malformed validation masks are rejected upfront.
func TestValMaskValidation(t *testing.T) {
	p := maskedProblem(t, 106)
	bad := p
	bad.ValMask = make([]bool, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected val-mask-length error")
	}
	bad = p
	bad.ValMask = make([]bool, 45) // all false
	if err := bad.Validate(); err == nil {
		t.Fatal("expected empty-val-mask error")
	}
}

// TestOptimizersChangeTrajectory: momentum and Adam must actually alter
// training relative to SGD (guards against the optimizer being silently
// ignored by the engine).
func TestOptimizersChangeTrajectory(t *testing.T) {
	base := deepMaskedProblem(t, 107)
	final := map[string]float64{}
	for _, optimizer := range []string{"sgd", "momentum", "adam"} {
		p := base
		p.Config.Optimizer = optimizer
		res, err := NewSerial().Train(p)
		if err != nil {
			t.Fatal(err)
		}
		final[optimizer] = res.Losses[len(res.Losses)-1]
	}
	if final["sgd"] == final["momentum"] || final["sgd"] == final["adam"] {
		t.Fatalf("optimizers had no effect on the trajectory: %v", final)
	}
}

// TestNewTrainerReplicated covers the factory's replication plumbing.
func TestNewTrainerReplicated(t *testing.T) {
	tr, err := NewTrainerReplicated("1.5d", 12, 3, testMach)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.(*rowTrainer).ReplicationFactor(); got != 3 {
		t.Fatalf("replication factor = %d, want 3", got)
	}
	// Default: c=2 on even P, 1 on odd P.
	tr, _ = NewTrainerReplicated("1.5d", 8, 0, testMach)
	if got := tr.(*rowTrainer).ReplicationFactor(); got != 2 {
		t.Fatalf("default replication on even P = %d, want 2", got)
	}
	tr, _ = NewTrainerReplicated("1.5d", 5, 0, testMach)
	if got := tr.(*rowTrainer).ReplicationFactor(); got != 1 {
		t.Fatalf("default replication on odd P = %d, want 1", got)
	}
	if _, err := NewTrainerReplicated("1.5d", 6, 4, testMach); err == nil {
		t.Fatal("expected error when c does not divide P")
	}
	if _, err := NewTrainerReplicated("2d", 4, 2, testMach); err == nil {
		t.Fatal("expected error for replication on a non-1.5d algorithm")
	}
	if _, err := NewTrainerReplicated("2d", 4, 1, testMach); err != nil {
		t.Fatalf("c=1 must be accepted everywhere: %v", err)
	}
	for _, name := range []string{"serial", "1d", "1.5d", "2d", "3d"} {
		_, err := NewTrainerReplicated(name, 8, -1, testMach)
		if err == nil || !strings.Contains(err.Error(), "replication factor") {
			t.Fatalf("%s with c=-1: want an error naming the replication factor, got %v", name, err)
		}
	}
}

// TestNewTrainerRejectsNonPositiveRanks: a rank count below 1 is an error
// naming the algorithm, not a panic out of comm.NewCluster. The serial
// trainer has no ranks and ignores the count.
func TestNewTrainerRejectsNonPositiveRanks(t *testing.T) {
	for _, algo := range []string{"serial", "1d", "1.5d", "2d", "3d"} {
		for _, p := range []int{0, -2} {
			tr, err := NewTrainerReplicated(algo, p, 0, testMach)
			if algo == "serial" {
				if err != nil || tr == nil {
					t.Fatalf("serial with p=%d: %v", p, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), algo) {
				t.Fatalf("%s with p=%d: want an error naming the algorithm, got %v", algo, p, err)
			}
		}
	}
	if _, err := NewTrainerReplicated("4d", -2, 0, testMach); err == nil || !strings.Contains(err.Error(), "unknown trainer") {
		t.Fatalf("unknown algorithm with p=-2: want the unknown-trainer error, got %v", err)
	}
}

// TestEngineOptimizerEquivalenceLosses sanity-checks loss agreement at a
// looser global level too: any drift beyond tolerance across 4 epochs of
// Adam would compound and show here.
func TestEngineOptimizerEquivalenceLosses(t *testing.T) {
	p := deepMaskedProblem(t, 108)
	p.Config.Optimizer = "adam"
	serial, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewTwoD(4, testMach).Train(p)
	if err != nil {
		t.Fatal(err)
	}
	for e := range serial.Losses {
		if math.Abs(serial.Losses[e]-dist.Losses[e]) > equivTol {
			t.Fatalf("adam epoch %d: serial %v vs 2d %v", e, serial.Losses[e], dist.Losses[e])
		}
	}
}
