package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// MiniBatch is a sampled mini-batch GCN trainer — the combination of
// sampling methods with this library's training machinery that the paper's
// conclusion proposes as future work ("we envision future work where our
// distributed training algorithms are carefully combined with
// sophisticated sampling based methods").
//
// Each step draws a batch of training vertices, samples a fan-out-bounded
// computation subgraph (GraphSAGE-style), and runs one full
// forward/backward pass on the subgraph with the loss restricted to the
// batch. The sampled footprint is bounded by b·(1 + f₁ + f₁f₂ + ...)
// regardless of graph size, in contrast to the exact k-hop footprint that
// explodes to the whole graph (§I).
type MiniBatch struct {
	// BatchSize is the number of seed vertices per step.
	BatchSize int
	// Fanouts bounds sampled neighbors per layer (length should equal the
	// network depth).
	Fanouts sampling.Fanouts
	// Seed drives batch shuffling and neighbor sampling.
	Seed int64

	maxFootprint int
}

// MaxFootprint returns the largest sampled-subgraph vertex count seen
// during the last Train call — the mini-batch memory story of §I.
func (t *MiniBatch) MaxFootprint() int { return t.maxFootprint }

// NewMiniBatch returns a sampled trainer.
func NewMiniBatch(batchSize int, fanouts sampling.Fanouts, seed int64) *MiniBatch {
	return &MiniBatch{BatchSize: batchSize, Fanouts: fanouts, Seed: seed}
}

// Name identifies the trainer.
func (t *MiniBatch) Name() string { return "minibatch" }

// Train runs cfg.Epochs passes over the training vertices of ds. Unlike
// the full-batch trainers it consumes the Dataset directly: the sampler
// needs graph connectivity, not just the normalized matrix.
func (t *MiniBatch) Train(ds *graph.Dataset, cfg nn.Config, mask []bool) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t.BatchSize <= 0 {
		return nil, fmt.Errorf("core: batch size %d must be positive", t.BatchSize)
	}
	if len(t.Fanouts) != cfg.Layers() {
		return nil, fmt.Errorf("core: %d fanouts for %d layers", len(t.Fanouts), cfg.Layers())
	}
	n := ds.Graph.NumVertices
	trainIdx := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if mask == nil || mask[v] {
			trainIdx = append(trainIdx, v)
		}
	}
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("core: no training vertices")
	}

	rng := rand.New(rand.NewSource(t.Seed))
	weights := nn.InitWeights(cfg)
	// One optimizer for the whole run: stateful rules (momentum, Adam)
	// accumulate across batch steps, as in standard SGD training.
	opt := cfg.NewOptimizer()
	losses := make([]float64, 0, cfg.Epochs)

	// One ops/engine pair for the whole run: each step retargets the ops
	// at its sampled subproblem, so the engine bookkeeping and the
	// workspace buffers (sized by the largest subgraph seen) are reused
	// across steps instead of reallocated.
	ops := &serialOps{cfg: cfg, ws: dense.NewWorkspace(), cnt: make([]float64, 8)}
	eng := &engine{ops: ops, cfg: cfg, opt: opt}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(trainIdx))
		var epochLoss float64
		steps := 0
		for start := 0; start < len(perm); start += t.BatchSize {
			end := min(start+t.BatchSize, len(perm))
			seeds := make([]int, 0, end-start)
			for _, i := range perm[start:end] {
				seeds = append(seeds, trainIdx[i])
			}
			sub, order, seedMask := sampling.SampleSubgraph(ds.Graph, seeds, t.Fanouts, rng)
			if sub.NumVertices > t.maxFootprint {
				t.maxFootprint = sub.NumVertices
			}
			subA := sub.NormalizedAdjacency()
			subH := dense.New(sub.NumVertices, ds.Features.Cols)
			subLabels := make([]int, sub.NumVertices)
			for newID, origID := range order {
				copy(subH.Row(newID), ds.Features.Row(origID))
				subLabels[newID] = ds.Labels[origID]
			}
			// Each step averages the loss over its own batch (standard
			// SGD normalization) and runs one engine epoch on the sampled
			// subproblem.
			ops.retarget(subA, subH, subLabels, seedMask, len(seeds))
			eng.aggregateInput() // T¹ belongs to this step's (A, H⁰) only
			loss, _, _ := eng.epoch(weights)
			ops.endEpoch() // release the step's workspace checkouts
			epochLoss += loss
			steps++
		}
		losses = append(losses, epochLoss/float64(steps))
	}

	// Inference is exact full-graph propagation with the trained weights.
	fullOps := newSerialOps(cfg, ds.Graph.NormalizedAdjacency(), ds.Features, ds.Labels, mask, len(trainIdx))
	full := &engine{ops: fullOps, cfg: cfg}
	full.aggregateInput()
	out := full.forward(weights)
	return &Result{
		Weights:  weights,
		Output:   out,
		Losses:   losses,
		Accuracy: nn.Accuracy(out, ds.Labels),
	}, nil
}
