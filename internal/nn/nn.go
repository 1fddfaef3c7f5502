// Package nn provides the neural-network pieces shared by every trainer:
// GCN layer configuration, deterministic weight initialization, the
// negative-log-likelihood loss, and accuracy metrics.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dense"
)

// Config describes the GCN architecture and optimizer settings. The paper
// trains a 3-layer Kipf-Welling GCN with ReLU hidden activations and a
// log_softmax output (§V-A).
type Config struct {
	// Widths holds the feature length at every level: Widths[0] is the
	// input feature length f⁰ and Widths[L] the output embedding length.
	Widths []int
	// Hidden is the activation for layers 1..L-1 (default ReLU).
	Hidden dense.Activation
	// Output is the activation for layer L (default LogSoftmax).
	Output dense.Activation
	// LR is the gradient-descent step size.
	LR float64
	// Optimizer names the weight-update rule: "sgd" (default), "momentum",
	// or "adam". Optimizer state is replicated on every rank, so the choice
	// adds no communication (§III-D).
	Optimizer string
	// Epochs is the number of full-batch epochs to run.
	Epochs int
	// Seed drives the deterministic weight initialization; every rank of a
	// distributed trainer must use the same seed to keep W replicated.
	Seed int64
}

// Layers returns L, the number of weight layers.
func (c Config) Layers() int { return len(c.Widths) - 1 }

// Validate checks the training settings: learning rate, epoch count and
// optimizer. The widths are the dataset's shape, checked against the data
// (core.Problem.Validate), so a Config without them can be vetted before
// any data exists.
func (c Config) Validate() error {
	if c.LR <= 0 {
		return fmt.Errorf("nn: learning rate %v must be positive", c.LR)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("nn: negative epoch count %d", c.Epochs)
	}
	if !ValidOptimizer(c.Optimizer) {
		return fmt.Errorf("nn: unknown optimizer %q (want %v)", c.Optimizer, Optimizers)
	}
	return nil
}

// WithDefaults returns a copy with nil activations replaced by the paper's
// choices (ReLU hidden, LogSoftmax output).
func (c Config) WithDefaults() Config {
	out := c
	if out.Hidden == nil {
		out.Hidden = dense.ReLU{}
	}
	if out.Output == nil {
		out.Output = dense.LogSoftmax{}
	}
	if out.LR == 0 {
		out.LR = 0.01
	}
	if out.Optimizer == "" {
		out.Optimizer = "sgd"
	}
	return out
}

// Activation returns the activation used after layer l in 1..L.
func (c Config) Activation(l int) dense.Activation {
	if l == c.Layers() {
		return c.Output
	}
	return c.Hidden
}

// AvgWidth returns the average feature length across levels, the f used in
// the paper's simplified cost formulas.
func (c Config) AvgWidth() float64 {
	var s int
	for _, w := range c.Widths {
		s += w
	}
	return float64(s) / float64(len(c.Widths))
}

// InitWeights deterministically initializes the L weight matrices
// W^l : Widths[l-1] x Widths[l] with Glorot uniform values. Two calls with
// equal configs produce identical weights, which is how distributed ranks
// keep their replicated W in sync without communication.
func InitWeights(c Config) []*dense.Matrix {
	rng := rand.New(rand.NewSource(c.Seed))
	out := make([]*dense.Matrix, c.Layers())
	for l := 0; l < c.Layers(); l++ {
		w := dense.New(c.Widths[l], c.Widths[l+1])
		w.GlorotInit(rng)
		out[l] = w
	}
	return out
}

// NLLLoss computes the mean negative log likelihood of log-probabilities
// logp (n x k) against integer labels, plus the gradient dL/dlogp. Rows
// [rowOffset, rowOffset+n) of labels are used, so distributed trainers can
// evaluate their local row block; the mean is still taken over totalRows.
func NLLLoss(logp *dense.Matrix, labels []int, rowOffset, totalRows int) (float64, *dense.Matrix) {
	return NLLLossMasked(logp, labels, nil, rowOffset, totalRows)
}

// NLLLossMasked is NLLLoss restricted to vertices where mask is true — the
// semi-supervised setting of Kipf & Welling, used by the paper for Reddit
// with the Hamilton et al. training split (§V-C). A nil mask trains on
// every vertex. normalizer must be the global count of masked vertices
// (totalRows when mask is nil) so distributed ranks normalize identically.
func NLLLossMasked(logp *dense.Matrix, labels []int, mask []bool, rowOffset, normalizer int) (float64, *dense.Matrix) {
	grad := dense.New(logp.Rows, logp.Cols)
	return NLLLossMaskedInto(grad, logp, labels, mask, rowOffset, normalizer), grad
}

// NLLLossMaskedInto is the allocation-free form of NLLLossMasked: the
// gradient is written into grad, which must be zeroed and shaped like logp
// (training loops draw it from a dense.Workspace). It returns the loss.
func NLLLossMaskedInto(grad, logp *dense.Matrix, labels []int, mask []bool, rowOffset, normalizer int) float64 {
	if normalizer <= 0 {
		panic(fmt.Sprintf("nn: loss normalizer = %d", normalizer))
	}
	var loss float64
	inv := 1.0 / float64(normalizer)
	for i := 0; i < logp.Rows; i++ {
		if mask != nil && !mask[rowOffset+i] {
			continue
		}
		lab := labels[rowOffset+i]
		if lab < 0 || lab >= logp.Cols {
			panic(fmt.Sprintf("nn: label %d out of range for %d classes", lab, logp.Cols))
		}
		loss -= logp.At(i, lab) * inv
		grad.Set(i, lab, -inv)
	}
	return loss
}

// CountMask returns the number of true entries, or fallback for a nil
// mask.
func CountMask(mask []bool, fallback int) int {
	if mask == nil {
		return fallback
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logp *dense.Matrix, labels []int) float64 {
	if logp.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logp.Rows; i++ {
		row := logp.Row(i)
		best, bestV := 0, math.Inf(-1)
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logp.Rows)
}
