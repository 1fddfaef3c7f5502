// Communication sweep: measure the words each algorithm moves per
// steady-state epoch as the rank count grows, next to the paper's
// closed-form §IV predictions. This reproduces the asymptotic story of the
// paper in one table: 1D is flat in P, 1.5D cuts the 1D dense traffic by
// its replication factor c, 2D falls as √P, 3D as P^{2/3}. The 2d and 3d
// columns are dense words only: the mesh holds its sparse row panels after
// the first SUMMA of each direction and transposes only when A ≠ Aᵀ (never
// on this symmetric graph), so a steady-state epoch moves no sparse word;
// the analytic column keeps the paper's uncached form, nnz terms included.
//
// Run with: go run ./examples/commsweep
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Feature-heavy like Amazon (f ≫ d), the regime where the paper's
	// crossover is sharpest.
	ds := cagnet.RandomDataset(10, 6, 64, 16, 8, 11)
	fmt.Printf("dataset: %d vertices, %d edges\n\n", ds.Graph.NumVertices, ds.Graph.NumEdges())

	// run returns total comm words for a given epoch count; differencing
	// two epoch counts isolates the steady-state epoch from what a run pays
	// once: setup, the input aggregation, 2D/3D's sparse row panels and
	// transpose, the final forward pass and output gathering. replication sets the 1.5D factor c (0 for the other
	// algorithms).
	run := func(algo string, ranks, replication, epochs int) int64 {
		report, err := cagnet.Train(ds, cagnet.TrainOptions{
			Algorithm: algo, Ranks: ranks, ReplicationFactor: replication,
			Epochs: epochs, LR: 0.01,
		})
		if err != nil {
			log.Fatal(err)
		}
		return report.WordsByCategory["dcomm"] +
			report.WordsByCategory["scomm"] +
			report.WordsByCategory["trpose"]
	}

	fmt.Printf("%4s  %14s  %14s  %14s  %14s | analytic 1d / 1.5d / 2d / 3d\n",
		"P", "1d words", "1.5d (c=2)", "2d words", "3d words")
	for _, p := range []int{1, 4, 16, 64} {
		oneD := run("1d", p, 0, 2) - run("1d", p, 0, 1)
		twoD := run("2d", p, 0, 2) - run("2d", p, 0, 1)
		oneFiveD := "-"
		if p%2 == 0 {
			// Explicit replication factor c=2: each rank broadcasts half
			// the dense rows of plain 1D at the cost of c-fold H storage.
			oneFiveD = fmt.Sprintf("%d", run("1.5d", p, 2, 2)-run("1.5d", p, 2, 1))
		}
		threeD := "-"
		if isCube(p) {
			threeD = fmt.Sprintf("%d", run("3d", p, 0, 2)-run("3d", p, 0, 1))
		}
		pred := cagnet.PredictWords(ds, p)
		fmt.Printf("%4d  %14d  %14s  %14d  %14s | %.3g / %.3g / %.3g / %.3g\n",
			p, oneD, oneFiveD, twoD, threeD,
			pred["1d"], pred["1.5d"], pred["2d"], pred["3d"])
	}
	fmt.Println("\n1D stays flat while 2D shrinks ~√P: the paper's headline result.")
	fmt.Println("The analytic bounds are the paper's uncached form: every layer pays both aggregations at the")
	fmt.Println("average width, and 2D/3D re-broadcast their sparse blocks every epoch. Measured steady-state")
	fmt.Println("epochs aggregate the 64-wide input layer once per run and every other layer at")
	fmt.Println("min(f_in, f_out), and carry no sparse words at all — the 2d/3d ranks hold their row panels")
	fmt.Println("of A after the first epoch (scomm, and trpose on a directed graph, are paid once per run) — so")
	fmt.Println("they sit below them.")
}

func isCube(p int) bool {
	c := 0
	for c*c*c < p {
		c++
	}
	return c*c*c == p
}
