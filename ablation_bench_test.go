package cagnet

// Ablation benchmarks for the design choices the paper discusses but does
// not sweep:
//
//	BenchmarkAblationTranspose   — share of 2D epoch cost spent on the
//	                               Aᵀ→A transpose exchange (the cost a 2x
//	                               memory budget would erase, §IV-A-7)
//	BenchmarkAblationReplication — 1.5D replication factor sweep (§IV-B)
//	BenchmarkAblationGridAspect  — rectangular-grid forward cost (§IV-C-6)
//	BenchmarkAblationPermutation — random-permutation load balance (§I)

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/partition"
)

func BenchmarkAblationTranspose(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				m, err := harness.MeasureEpoch(ds, "2d", p, costmodel.SummitSim)
				if err != nil {
					b.Fatal(err)
				}
				share = m.TimeByCat[comm.CatTranspose] / m.EpochTime
			}
			b.ReportMetric(100*share, "trpose-%-of-epoch")
		})
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	ds := benchDataset(b, "amazon-sim")
	const ranks = 16
	problem := core.Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: ds.LayerWidths(), LR: 0.01, Seed: 1,
		},
	}
	for _, c := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				// Differencing 2- and 1-epoch runs isolates per-epoch cost.
				var per [2]int64
				for e := 1; e <= 2; e++ {
					tr := core.NewOneFiveD(ranks, c, costmodel.SummitSim)
					p := problem
					p.Config.Epochs = e
					if _, err := tr.Train(p); err != nil {
						b.Fatal(err)
					}
					per[e-1] = tr.Cluster().MaxWordsByCategory()[comm.CatDenseComm]
				}
				words = per[1] - per[0]
			}
			b.ReportMetric(float64(words), "dcomm-words/epoch")
			b.ReportMetric(float64(c), "replication")
		})
	}
}

func BenchmarkAblationGridAspect(b *testing.B) {
	ds := benchDataset(b, "protein-sim")
	a := ds.Graph.Adjacency()
	w := costmodel.Workload{
		N: ds.Graph.NumVertices, NNZ: int64(a.NNZ()),
		F: (float64(ds.FeatureLen()) + float64(ds.Hidden) + float64(ds.NumLabels)) / 3, Layers: 3,
	}
	for _, aspect := range [][2]int{{8, 8}, {16, 4}, {32, 2}, {4, 16}} {
		b.Run(fmt.Sprintf("%dx%d", aspect[0], aspect[1]), func(b *testing.B) {
			var words float64
			for i := 0; i < b.N; i++ {
				words = costmodel.TwoDRect(w, aspect[0], aspect[1]).Words
			}
			b.ReportMetric(words, "fwd-words")
		})
	}
}

func BenchmarkAblationPermutation(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cfg := graph.RMATConfig{A: 0.57, B: 0.19, C: 0.19, Noise: 0}
	g := graph.RMAT(12, 16, cfg, rng)
	grid := partition.NewGrid2D(4, 4)
	var before, after partition.LoadBalance
	for i := 0; i < b.N; i++ {
		before, after = partition.PermutedBalance(g, grid, rng)
	}
	b.ReportMetric(before.Imbalance, "imbalance-natural")
	b.ReportMetric(after.Imbalance, "imbalance-permuted")
}
