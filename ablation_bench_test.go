package cagnet

// Ablation benchmarks for the design choices the paper discusses but does
// not sweep:
//
//	BenchmarkAblationTranspose   — share of 2D epoch cost spent on the
//	                               Aᵀ→A transpose exchange (the cost a 2x
//	                               memory budget would erase, §IV-A-7)
//	BenchmarkAblationReplication — 1.5D replication factor sweep (§IV-B)

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/nn"
)

func BenchmarkAblationTranspose(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				m, err := harness.MeasureEpoch(ds, "2d", p, false, costmodel.SummitSim)
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
				// The second epoch of a 2-epoch run is the steady-state one.
				tr := core.NewOneFiveD(ranks, c, costmodel.SummitSim)
				p := problem
				p.Config.Epochs = 2
				if _, err := tr.Train(p); err != nil {
					b.Fatal(err)
				}
				words = tr.Cluster().Max((*comm.Ledger).LastEpoch).Words[comm.CatDenseComm]
			}
			b.ReportMetric(float64(words), "dcomm-words/epoch")
			b.ReportMetric(float64(c), "replication")
		})
	}
}
