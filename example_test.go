package cagnet_test

import (
	"fmt"
	"math/rand"

	cagnet "repro"
	"repro/internal/graph"
	"repro/internal/partition"
)

// ExampleTrain trains a small GCN serially with the Adam optimizer,
// holding out every fifth vertex for validation: training runs on the
// complement (derived when TrainMask is nil), and the report tracks train
// and validation accuracy per epoch.
func ExampleTrain() {
	ds := cagnet.RandomDataset(8, 6, 12, 8, 4, 42)
	valMask := make([]bool, ds.Graph.NumVertices)
	for v := 0; v < len(valMask); v += 5 {
		valMask[v] = true
	}
	report, err := cagnet.Train(ds, cagnet.TrainOptions{
		Algorithm: "serial",
		Epochs:    3,
		LR:        0.05,
		Optimizer: "adam",
		ValMask:   valMask,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("epochs:", len(report.Losses))
	fmt.Println("output shape:", report.OutputRows, "x", report.OutputCols)
	fmt.Println("losses decrease:", report.Losses[2] < report.Losses[0])
	fmt.Println("accuracies per epoch:", len(report.TrainAccuracy), "train,", len(report.ValAccuracy), "validation")
	// Output:
	// epochs: 3
	// output shape: 256 x 4
	// losses decrease: true
	// accuracies per epoch: 3 train, 3 validation
}

// ExampleTrain_distributed runs the 2D SUMMA algorithm on a simulated 2x2
// process grid and shows that it reproduces the serial loss exactly.
func ExampleTrain_distributed() {
	ds := cagnet.RandomDataset(8, 6, 12, 8, 4, 42)
	serial, _ := cagnet.Train(ds, cagnet.TrainOptions{Algorithm: "serial", Epochs: 2})
	dist, err := cagnet.Train(ds, cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 2})
	if err != nil {
		panic(err)
	}
	diff := serial.Losses[1] - dist.Losses[1]
	fmt.Println("losses match:", diff < 1e-9 && diff > -1e-9)
	fmt.Println("counted dense traffic:", dist.WordsByCategory["dcomm"] > 0)
	// Output:
	// losses match: true
	// counted dense traffic: true
}

// ExamplePredictWords evaluates the paper's closed-form communication
// bounds without running anything.
func ExamplePredictWords() {
	ds := cagnet.RandomDataset(10, 8, 32, 16, 8, 7)
	pred := cagnet.PredictWords(ds, 64)
	fmt.Println("2D beats 1D at P=64:", pred["2d"] < pred["1d"])
	fmt.Println("3D beats 2D at P=64:", pred["3d"] < pred["2d"])
	// Output:
	// 2D beats 1D at P=64: true
	// 3D beats 2D at P=64: true
}

// Example_communicationSweep measures the words each algorithm moves per
// steady-state epoch as the rank count grows, on a feature-heavy graph
// like Amazon (f ≫ d), where the paper's crossover is sharpest: 1D is flat
// in P, 1.5D cuts it by its replication factor c = 2, 2D falls as √P, 3D
// as P^{2/3}. Differencing a 2-epoch and a 1-epoch run leaves out what a
// run pays once — the input aggregation, 2D/3D's sparse row panels, the
// final forward pass — so the 2d and 3d columns are dense words only.
func Example_communicationSweep() {
	ds := cagnet.RandomDataset(10, 6, 64, 16, 8, 11)
	steady := func(algo string, ranks, replication int) int64 {
		words := func(epochs int) int64 {
			report, err := cagnet.Train(ds, cagnet.TrainOptions{
				Algorithm: algo, Ranks: ranks, ReplicationFactor: replication, Epochs: epochs,
			})
			if err != nil {
				panic(err)
			}
			return report.WordsByCategory["dcomm"] + report.WordsByCategory["scomm"] + report.WordsByCategory["trpose"]
		}
		return words(2) - words(1)
	}
	fmt.Printf("%3s %6s %6s %6s %6s\n", "P", "1d", "1.5d", "2d", "3d")
	for _, p := range []int{4, 16, 64} {
		threeD := "-"
		if p == 64 {
			threeD = fmt.Sprint(steady("3d", p, 0))
		}
		fmt.Printf("%3d %6d %6d %6d %6s\n", p, steady("1d", p, 0), steady("1.5d", p, 2), steady("2d", p, 0), threeD)
	}
	// Output:
	//   P     1d   1.5d     2d     3d
	//   4  18704  26884  33052      -
	//  16  18752  14608  16888      -
	//  64  18944  11584   8944   6584
}

// Example_partitioning compares a locality-aware greedy partitioner (a
// Metis stand-in) with random assignment at 64 parts (§IV-A-8). On a
// lattice it cuts both the total edgecut and the per-part maximum that
// bounds a bulk-synchronous epoch. On a scale-free graph its total falls
// while its maximum rises: graph partitioning cannot rescue the 1D
// algorithms there, and 2D/3D layouts win.
func Example_partitioning() {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"scale-free (rmat)", graph.RMAT(12, 16, graph.DefaultRMAT, rng)},
		{"lattice (64x64 grid)", graph.Grid2D(64, 64)},
	} {
		const p = 64
		random := partition.Edgecut(tc.g, partition.RandomAssignment(tc.g.NumVertices, p, rng))
		greedy := partition.Edgecut(tc.g, partition.GreedyBFS(tc.g, p, rng))
		fmt.Printf("%s: total cut %d random, %d greedy; max cut %d random, %d greedy\n",
			tc.name, random.TotalCut, greedy.TotalCut, random.MaxCut, greedy.MaxCut)
	}
	// Output:
	// scale-free (rmat): total cut 64285 random, 58560 greedy; max cut 3006 random, 10135 greedy
	// lattice (64x64 grid): total cut 15888 random, 3368 greedy; max cut 254 random, 213 greedy
}
