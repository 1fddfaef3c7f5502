package main

import (
	"fmt"
	"math/rand"

	cagnet "repro"
	"repro/internal/graph"
)

// World is the rank count of every distributed workload: the smallest
// world that is also a valid 2D grid, on a box with two cores.
const World = 4

// The run shape. None of it is a flag, so it cannot drift between a parent
// commit and a change.
const (
	// Epochs is E in the T(1)/T(E) differencing. The issue's 15 was cut to
	// fit 9 repetitions of the slowest workload, and the host sweeps, into
	// a run the driver's time cap allows (README.md, "Run shape").
	Epochs = 8
	// Passes is the number of fresh child processes per workload, each
	// with its own cold start.
	Passes = 3
	// RunSeconds is how long the warm repetitions of one workload measure,
	// over all passes: BENCHMARK.json's run_seconds.
	RunSeconds = 20
	// Each untraced pass makes at least MinReps warm repetitions, so a
	// workload never has fewer than Passes × MinReps samples; the traced
	// pass at least TracedMinReps (each of those is four Train calls).
	MinReps       = 3
	TracedMinReps = 2
	// quickEpochs replaces Epochs under -quick.
	quickEpochs = 3
)

// workload is one closed-loop training job: a dataset recipe plus the
// TrainOptions that select the layers it stresses. Sizes and options are
// constants of the benchmark, not flags, so they cannot drift between a
// parent commit and a change. Each entry's comment is why it is here;
// BENCHMARK.json and README.md say the same at more length.
type workload struct {
	name string
	// build synthesizes the dataset from the seed; quick shrinks it to
	// scale 7 for the in-process test pass.
	build func(seed int64, quick bool) *graph.Dataset
	// opts are the TrainOptions without Epochs and Seed.
	opts cagnet.TrainOptions
}

// scale picks the R-MAT scale: the workload's own, or 7 under -quick.
func scale(full int, quick bool) int {
	if quick {
		return 7
	}
	return full
}

var workloads = []workload{
	{
		name: "serial_wide",
		// Single-worker baseline: sparse and dense kernels are the whole
		// epoch and comm does nothing, so a kernel change shows at full
		// leverage and a wire change shows nothing.
		build: func(seed int64, quick bool) *graph.Dataset {
			return cagnet.RandomDataset(scale(13, quick), 32, 256, 64, 32, seed)
		},
		opts: cagnet.TrainOptions{Algorithm: "serial"},
	},
	{
		name: "bcast1d_sparse",
		// Bandwidth-bound dense communication: 1D over loopback TCP moves
		// few large blocking broadcasts; the kernels are the small part.
		build: func(seed int64, quick bool) *graph.Dataset {
			return cagnet.RandomDataset(scale(14, quick), 2, 128, 16, 8, seed)
		},
		opts: cagnet.TrainOptions{Algorithm: "1d", Ranks: World, Transport: "tcp"},
	},
	{
		name: "summa2d_dense",
		// Latency- and framing-bound communication: 2D SUMMA over TCP with
		// overlap issues many small, mostly sparse, non-blocking
		// collectives and transposes. A change that helps big blocking
		// broadcasts but hurts small async ones shows here.
		build: func(seed int64, quick bool) *graph.Dataset {
			return cagnet.RandomDataset(scale(13, quick), 50, 64, 16, 41, seed)
		},
		opts: cagnet.TrainOptions{Algorithm: "2d", Ranks: World, Transport: "tcp", Overlap: true},
	},
	{
		name: "halo1d_ldg",
		// Bypasses the TCP wire: 1D halo exchange on the in-process fabric
		// under an LDG partition, so rank-local kernels, the engine and the
		// row-list SpMM are the epoch, and partition + halo plans the set-up.
		build: func(seed int64, quick bool) *graph.Dataset {
			scalePer := 8
			if quick {
				scalePer = 3
			}
			g := graph.CommunityRMAT(64, scalePer, 8, 3, rand.New(rand.NewSource(seed)))
			return graph.Synthetic("community-rmat", g, 128, 32, 16, seed)
		},
		opts: cagnet.TrainOptions{Algorithm: "1d", Ranks: World, HaloExchange: true, Partitioner: "ldg", Overlap: true},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// trainOpts returns the workload's options for one Train call.
func (w workload) trainOpts(seed int64, epochs int) cagnet.TrainOptions {
	o := w.opts
	o.Seed = seed
	o.Epochs = epochs
	return o
}

// distributed reports whether the workload runs on a rank fabric.
func (w workload) distributed() bool { return w.opts.Algorithm != "serial" }

// tcp reports whether the workload's fabric is the loopback TCP mesh.
func (w workload) tcp() bool { return w.opts.Transport == "tcp" }
