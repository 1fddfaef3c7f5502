package nn

import (
	"math"
	"testing"

	"repro/internal/dense"
)

func validConfig() Config {
	return Config{Widths: []int{8, 4, 3}, LR: 0.1, Epochs: 2, Seed: 1}.WithDefaults()
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	// The widths are checked with the data (core's TestProblemValidate).
	bad := []Config{
		{Widths: []int{5, 3}, LR: 0},
		{Widths: []int{5, 3}, LR: 0.1, Epochs: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{Widths: []int{4, 2}}.WithDefaults()
	if c.Hidden.Name() != "relu" || c.Output.Name() != "log_softmax" {
		t.Fatalf("defaults = %s/%s", c.Hidden.Name(), c.Output.Name())
	}
	if c.LR != 0.01 {
		t.Fatalf("default LR = %v", c.LR)
	}
}

func TestLayersAndActivation(t *testing.T) {
	c := validConfig()
	if c.Layers() != 2 {
		t.Fatalf("Layers = %d", c.Layers())
	}
	if c.Activation(1).Name() != "relu" {
		t.Fatal("hidden activation wrong")
	}
	if c.Activation(2).Name() != "log_softmax" {
		t.Fatal("output activation wrong")
	}
}

func TestAvgWidth(t *testing.T) {
	c := validConfig()
	if got := c.AvgWidth(); got != 5 {
		t.Fatalf("AvgWidth = %v, want 5", got)
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	a := InitWeights(validConfig())
	b := InitWeights(validConfig())
	if len(a) != 2 {
		t.Fatalf("got %d weight matrices", len(a))
	}
	for l := range a {
		if a[l].Rows != validConfig().Widths[l] || a[l].Cols != validConfig().Widths[l+1] {
			t.Fatalf("W[%d] shape %dx%d", l, a[l].Rows, a[l].Cols)
		}
		if dense.MaxAbsDiff(a[l], b[l]) != 0 {
			t.Fatal("InitWeights not deterministic")
		}
	}
	c2 := validConfig()
	c2.Seed = 99
	c := InitWeights(c2)
	if dense.MaxAbsDiff(a[0], c[0]) == 0 {
		t.Fatal("different seeds should give different weights")
	}
}

func TestNLLLossValue(t *testing.T) {
	// Two rows, perfect log-probs for row 0 (log 1 = 0) and log(0.5) for
	// row 1.
	logp := dense.FromRows([][]float64{
		{0, -50},
		{math.Log(0.5), math.Log(0.5)},
	})
	labels := []int{0, 1}
	loss, grad := NLLLoss(logp, labels, 0, 2)
	want := -(0 + math.Log(0.5)) / 2
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	if grad.At(0, 0) != -0.5 || grad.At(1, 1) != -0.5 || grad.At(0, 1) != 0 {
		t.Fatalf("grad = %v", grad)
	}
}

func TestNLLLossRowOffset(t *testing.T) {
	// Evaluating rows [2, 4) of a 4-row problem.
	logp := dense.FromRows([][]float64{{-1, -2}, {-3, -4}})
	labels := []int{0, 0, 1, 0}
	loss, grad := NLLLoss(logp, labels, 2, 4)
	want := -(-2 + -3) / 4.0
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("offset loss = %v, want %v", loss, want)
	}
	if grad.At(0, 1) != -0.25 || grad.At(1, 0) != -0.25 {
		t.Fatalf("offset grad = %v", grad)
	}
}

func TestNLLLossGradientNumerical(t *testing.T) {
	logp := dense.FromRows([][]float64{{-0.5, -1.2, -2.0}, {-1.0, -0.3, -3.0}})
	labels := []int{2, 1}
	_, grad := NLLLoss(logp, labels, 0, 2)
	const h = 1e-6
	for i := range logp.Data {
		lp := logp.Clone()
		lm := logp.Clone()
		lp.Data[i] += h
		lm.Data[i] -= h
		up, _ := NLLLoss(lp, labels, 0, 2)
		um, _ := NLLLoss(lm, labels, 0, 2)
		num := (up - um) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numerical %v", i, grad.Data[i], num)
		}
	}
}

func TestNLLLossBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NLLLoss(dense.New(1, 2), []int{5}, 0, 1)
}

func TestAccuracy(t *testing.T) {
	logp := dense.FromRows([][]float64{
		{-0.1, -3},
		{-2, -0.2},
		{-0.5, -0.4},
	})
	labels := []int{0, 1, 0}
	if got := Accuracy(logp, labels); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
	if Accuracy(dense.New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestCountMask(t *testing.T) {
	if CountMask(nil, 7) != 7 {
		t.Fatal("nil mask should return fallback")
	}
	if CountMask([]bool{true, false, true, true}, 9) != 3 {
		t.Fatal("CountMask miscounts")
	}
	if CountMask([]bool{}, 5) != 0 {
		t.Fatal("empty mask counts 0")
	}
}

func TestNLLLossMaskedSubset(t *testing.T) {
	logp := dense.FromRows([][]float64{{-1, -2}, {-3, -4}, {-5, -6}})
	labels := []int{0, 1, 0}
	mask := []bool{true, false, true}
	loss, grad := NLLLossMasked(logp, labels, mask, 0, 2)
	want := -(-1 + -5) / 2.0
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("masked loss = %v, want %v", loss, want)
	}
	if grad.At(1, 1) != 0 {
		t.Fatal("unmasked row must get zero gradient")
	}
	if grad.At(0, 0) != -0.5 || grad.At(2, 0) != -0.5 {
		t.Fatalf("masked grad wrong: %v", grad)
	}
}
