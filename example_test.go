package cagnet_test

import (
	"fmt"

	cagnet "repro"
)

// ExampleTrain trains a small GCN serially and prints the learning
// trajectory.
func ExampleTrain() {
	ds := cagnet.RandomDataset(8, 6, 12, 8, 4, 42)
	report, err := cagnet.Train(ds, cagnet.TrainOptions{
		Algorithm: "serial",
		Epochs:    3,
		LR:        0.05,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("epochs:", len(report.Losses))
	fmt.Println("output shape:", report.OutputRows, "x", report.OutputCols)
	fmt.Println("losses decrease:", report.Losses[2] < report.Losses[0])
	// Output:
	// epochs: 3
	// output shape: 256 x 4
	// losses decrease: true
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
