package comm_test

import (
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nn"
)

// TestFaultOpsPerEpoch pins what FaultEvent.AtOp counts over one epoch of a
// 1D run at P = 2, two layers, per rank: every Send and Recv of the epoch's
// collectives and the one Barrier of EpochDone's Recycle. Layer 2
// aggregates forward and backward by two block-row broadcast stages each
// (a rank sends at its own stage, receives at the other: 4 ops), the two
// weight gradients and the loss are all-reduced (one swap each: 6 ops),
// and the epoch ends in one barrier — 11. (T¹ is aggregated once per run.)
// An epoch is the difference between a 3-epoch and a 2-epoch run, whose
// set-up and tail are the same. A change that moves a barrier or a message
// moves the count, and an op-indexed fault plan (sever@op=N) then fires at
// another point of the run.
func TestFaultOpsPerEpoch(t *testing.T) {
	const p = 2
	rng := rand.New(rand.NewSource(3))
	g := graph.New(40)
	for _, e := range graph.ErdosRenyi(40, 4, rng).Edges {
		g.AddUndirectedEdge(e[0], e[1])
	}
	ds := graph.Synthetic("ops", g, 6, 5, 3, 4)
	mach := costmodel.Machine{Name: "test", Alpha: 1e-6, Beta: 1e-9, GEMMRate: 1e9, SpMMRate: 1e9}
	cost := comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}
	run := func(epochs int) (ops [p]int, epoch [p]comm.Reading) {
		comms, err := comm.LocalTCPComms(p, cost)
		if err != nil {
			t.Fatal(err)
		}
		fts := make([]*comm.FaultTransport, p)
		for i, c := range comms {
			fts[i] = comm.NewFaultTransport(c.Transport(), nil)
			comms[i] = comm.NewTransportComm(fts[i], cost)
		}
		cl := comm.ClusterOf(comms...)
		defer cl.Close()
		tr := core.NewOneD(p, mach)
		if err := core.SetCluster(tr, cl); err != nil {
			t.Fatal(err)
		}
		prob := core.Problem{
			A: ds.Graph.NormalizedAdjacency(), Features: ds.Features, Labels: ds.Labels,
			Config: nn.Config{Widths: []int{6, 5, 3}, LR: 0.05, Epochs: epochs, Seed: 5},
		}
		if _, err := tr.Train(prob); err != nil {
			t.Fatal(err)
		}
		for r := range ops {
			ops[r], epoch[r] = fts[r].Ops(), cl.Ledger(r).LastEpoch()
		}
		return ops, epoch
	}
	two, _ := run(2)
	three, epoch := run(3)
	for r, want := range [p]int{11, 11} {
		got := three[r] - two[r]
		if got != want {
			t.Errorf("rank %d: one epoch is %d transport ops, want %d", r, got, want)
		}
		if msgs := int(epoch[r].Sent.Msgs + epoch[r].Recv.Msgs); got != msgs+1 {
			t.Errorf("rank %d: one epoch is %d transport ops, but its plan moved %d messages and Recycle enters one barrier", r, got, msgs)
		}
	}
}
