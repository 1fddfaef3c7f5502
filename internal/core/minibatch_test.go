package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sampling"
)

func TestMiniBatchLearnsSBM(t *testing.T) {
	ds, err := graph.LearnableSpec{
		Communities: 4, PerCommunity: 60,
		IntraDegree: 8, InterDegree: 2,
		Features: 8, FeatureNoise: 0.8, Seed: 81,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.Config{Widths: []int{8, 16, 4}, LR: 0.4, Epochs: 15, Seed: 82}
	tr := NewMiniBatch(32, sampling.Fanouts{6, 6}, 83)
	res, err := tr.Train(ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 15 {
		t.Fatalf("got %d epoch losses", len(res.Losses))
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("mini-batch SBM accuracy = %v, want ≥ 0.85", res.Accuracy)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not fall: %v -> %v", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestMiniBatchWithMask(t *testing.T) {
	ds, err := graph.LearnableSpec{
		Communities: 3, PerCommunity: 40,
		IntraDegree: 8, InterDegree: 1,
		Features: 6, FeatureNoise: 0.5, Seed: 84,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Supervise only half the vertices; accuracy is still measured on all.
	mask := make([]bool, ds.Graph.NumVertices)
	for i := 0; i < len(mask); i += 2 {
		mask[i] = true
	}
	cfg := nn.Config{Widths: []int{6, 12, 3}, LR: 0.4, Epochs: 12, Seed: 85}
	res, err := NewMiniBatch(16, sampling.Fanouts{5, 5}, 86).Train(ds, cfg, mask)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.8 {
		t.Fatalf("semi-supervised mini-batch accuracy = %v", res.Accuracy)
	}
}

func TestMiniBatchValidation(t *testing.T) {
	ds, _ := graph.LearnableSpec{
		Communities: 2, PerCommunity: 10, IntraDegree: 3, InterDegree: 1,
		Features: 4, FeatureNoise: 0.1, Seed: 87,
	}.Build()
	cfg := nn.Config{Widths: []int{4, 4, 2}, LR: 0.1, Epochs: 1, Seed: 88}
	if _, err := NewMiniBatch(0, sampling.Fanouts{2, 2}, 1).Train(ds, cfg, nil); err == nil {
		t.Fatal("expected batch-size error")
	}
	if _, err := NewMiniBatch(4, sampling.Fanouts{2}, 1).Train(ds, cfg, nil); err == nil {
		t.Fatal("expected fanout-count error")
	}
	empty := make([]bool, ds.Graph.NumVertices)
	if _, err := NewMiniBatch(4, sampling.Fanouts{2, 2}, 1).Train(ds, cfg, empty); err == nil {
		t.Fatal("expected empty-mask error")
	}
}

func TestMiniBatchName(t *testing.T) {
	if NewMiniBatch(1, nil, 0).Name() != "minibatch" {
		t.Fatal("name wrong")
	}
}

// TestMiniBatchInputAggregateNotReused: T¹ = Aᵀ·H⁰ belongs to one step's
// sampled (A, H⁰). One epoch over two batches is two consecutive steps on
// different subgraphs; the reference below repeats them with a fresh ops
// and engine per step, which cannot carry anything from one subgraph to
// the next, and the trainer — which reuses one ops/engine pair for the whole
// run — must reproduce it bit for bit.
func TestMiniBatchInputAggregateNotReused(t *testing.T) {
	ds, err := graph.LearnableSpec{
		Communities: 3, PerCommunity: 60,
		IntraDegree: 6, InterDegree: 2,
		Features: 6, FeatureNoise: 0.5, Seed: 87,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Graph.NumVertices
	cfg := nn.Config{Widths: []int{6, 8, 3}, LR: 0.3, Epochs: 1, Seed: 88}
	fanouts := sampling.Fanouts{2, 2}
	const seed, batch = 89, 90 // 180 training vertices: exactly two steps

	got, err := NewMiniBatch(batch, fanouts, seed).Train(ds, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(seed))
	weights := nn.InitWeights(cfg)
	opt := cfg.NewOptimizer()
	perm := rng.Perm(n)
	var lossSum float64
	var sizes []int
	for start := 0; start < n; start += batch {
		seeds := perm[start : start+batch]
		sub, order, seedMask := sampling.SampleSubgraph(ds.Graph, seeds, fanouts, rng)
		sizes = append(sizes, sub.NumVertices)
		subH := dense.New(sub.NumVertices, ds.Features.Cols)
		subLabels := make([]int, sub.NumVertices)
		for newID, origID := range order {
			copy(subH.Row(newID), ds.Features.Row(origID))
			subLabels[newID] = ds.Labels[origID]
		}
		ops := &serialOps{cfg: cfg, ws: dense.NewWorkspace(), cnt: make([]float64, 8)}
		ops.retarget(sub.NormalizedAdjacency(), subH, subLabels, seedMask, len(seeds))
		eng := &engine{ops: ops, cfg: cfg, opt: opt}
		eng.aggregateInput()
		loss, _, _ := eng.epoch(weights)
		lossSum += loss
	}
	if len(sizes) != 2 || sizes[0] == sizes[1] {
		t.Fatalf("want two steps on subgraphs of different sizes, got sizes %v", sizes)
	}

	if g, w := got.Losses[0], lossSum/2; math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("epoch loss %v, per-step-fresh reference %v (bitwise)", g, w)
	}
	for l := range weights {
		for j, w := range weights[l].Data {
			if g := got.Weights[l].Data[j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("W[%d].Data[%d] = %v, per-step-fresh reference %v (bitwise)", l, j, g, w)
			}
		}
	}
}
