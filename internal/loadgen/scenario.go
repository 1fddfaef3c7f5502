package loadgen

import (
	"fmt"
	"math"
	"runtime"

	cagnet "repro"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// Scenario names one trainer configuration the driver fires load at.
type Scenario struct {
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	Ranks     int    `json:"ranks"`
	Overlap   bool   `json:"overlap"`
	Halo      bool   `json:"halo,omitempty"`
}

// DefaultScenarios returns the standard sweep the acceptance gates key
// on: every distributed decomposition with overlap off and on, at rank
// counts legal for each grid (LegalRanks of ranks).
func DefaultScenarios(ranks int) []Scenario {
	var out []Scenario
	for _, algo := range []string{"1d", "1.5d", "2d", "3d"} {
		p := LegalRanks(algo, ranks)
		for _, overlap := range []bool{false, true} {
			name := algo
			if overlap {
				name += "-overlap"
			}
			out = append(out, Scenario{Name: name, Algorithm: algo, Ranks: p, Overlap: overlap})
		}
	}
	return out
}

// LegalRanks adjusts a target rank count to the nearest one the
// algorithm's process grid accepts: a perfect square for 2d, a perfect
// cube for 3d, an even count for 1.5d's default replication factor
// (odd targets round up), and any positive count for 1d. The result is
// always ≥ 1.
func LegalRanks(algo string, target int) int {
	if target < 1 {
		target = 1
	}
	switch algo {
	case "2d":
		s := int(math.Round(math.Sqrt(float64(target))))
		if s < 1 {
			s = 1
		}
		return s * s
	case "3d":
		c := int(math.Round(math.Cbrt(float64(target))))
		if c < 1 {
			c = 1
		}
		return c * c * c
	case "1.5d":
		if target%2 != 0 && target > 1 {
			target++
		}
		return target
	default:
		return target
	}
}

// trainOptions maps a scenario onto cagnet.TrainOptions for an
// epochs-long training request.
func (s Scenario) trainOptions(epochs int, machine string) cagnet.TrainOptions {
	return cagnet.TrainOptions{
		Algorithm:    s.Algorithm,
		Ranks:        s.Ranks,
		Epochs:       epochs,
		Overlap:      s.Overlap,
		HaloExchange: s.Halo,
		Machine:      machine,
	}
}

// TrainWorkload returns a Workload whose every request trains ds for
// epochs full-batch epochs under the scenario's decomposition.
func (s Scenario) TrainWorkload(ds *graph.Dataset, epochs, weight int, machine string) Workload {
	if epochs <= 0 {
		epochs = 1
	}
	opts := s.trainOptions(epochs, machine)
	return Workload{
		Name:   "train",
		Weight: weight,
		Units:  epochs,
		Work: func() error {
			_, err := cagnet.Train(ds, opts)
			return err
		},
	}
}

// InferWorkload returns a Workload whose every request runs one
// full-graph forward pass of the 3-layer GCN with fixed weights — the
// serving-side work item. The weights come from a short serial training
// run at construction so the inference path exercises realistic values.
func InferWorkload(ds *graph.Dataset, weight int) (Workload, error) {
	report, err := cagnet.Train(ds, cagnet.TrainOptions{Algorithm: "serial", Epochs: 3})
	if err != nil {
		return Workload{}, fmt.Errorf("loadgen: training inference weights: %w", err)
	}
	weights := report.Result().Weights
	a := ds.Graph.NormalizedAdjacency()
	plan := sparse.NewTransposePlan(a)
	cfg := nn.Config{Widths: ds.LayerWidths()}.WithDefaults()
	feats := ds.Features
	return Workload{
		Name:   "infer",
		Weight: weight,
		Units:  1,
		Work: func() error {
			Forward(a, plan, feats, weights, cfg)
			return nil
		},
	}, nil
}

// Forward computes the full-graph GCN forward pass H^L with fixed
// weights: per layer Z = Aᵀ·H·W in the training engine's product order —
// aggregate first (T = Aᵀ·H, Z = T·W) at layer 1 and wherever the layer
// does not narrow, multiply first (Z = Aᵀ·(H·W)) where it does — so the
// result is the trainer's output bit for bit, then H = σ(Z). It allocates
// its own temporaries, so concurrent callers never share state.
func Forward(a *sparse.CSR, plan *sparse.TransposePlan, feats *dense.Matrix, weights []*dense.Matrix, cfg nn.Config) *dense.Matrix {
	aggregate := func(x *dense.Matrix) *dense.Matrix {
		t := dense.New(a.Rows, x.Cols)
		if plan != nil {
			plan.SpMMT(t, x)
		} else {
			sparse.SpMMT(t, a, x)
		}
		return t
	}
	multiply := func(x, w *dense.Matrix) *dense.Matrix {
		z := dense.New(x.Rows, w.Cols)
		dense.Mul(z, x, w)
		return z
	}
	h := feats
	for l := 1; l <= cfg.Layers(); l++ {
		var z *dense.Matrix
		if w := weights[l-1]; l == 1 || w.Rows <= w.Cols {
			z = multiply(aggregate(h), w)
		} else {
			z = aggregate(multiply(h, w))
		}
		out := dense.New(z.Rows, z.Cols)
		cfg.Activation(l).Forward(out, z)
		h = out
	}
	return h
}

// ModeledStats holds the deterministic per-epoch metrics of a scenario:
// modeled seconds and hidden-communication fraction from the α–β
// timeline, and the steady-state heap-allocation rate of the real
// training loop. These — not the wall-clock latencies, which vary by
// host — are what cagnet-benchdiff gates on.
type ModeledStats struct {
	// EpochSeconds is the modeled critical-path seconds per epoch
	// (harness.MeasureEpochOpts differencing, setup excluded).
	EpochSeconds float64 `json:"epoch_sec"`
	// HiddenCommFraction is the modeled communication time hidden behind
	// compute, as a fraction of the epoch time (zero without overlap).
	HiddenCommFraction float64 `json:"hidden_comm_fraction"`
	// AllocsPerEpoch and BytesPerEpoch are the steady-state per-epoch
	// heap allocation counts of the training loop under the serial
	// backend (see AllocsPerEpoch); 0/0 is the allocation-free contract
	// the BENCH trajectory pins.
	AllocsPerEpoch float64 `json:"allocs_per_epoch"`
	BytesPerEpoch  float64 `json:"bytes_per_epoch"`
}

// ModeledEpoch measures the scenario's deterministic modeled epoch cost
// on mach.
func ModeledEpoch(ds *graph.Dataset, s Scenario, mach costmodel.Machine) (ModeledStats, error) {
	m, err := harness.MeasureEpochOpts(ds, s.Algorithm, s.Ranks, harness.Options{
		Machine: mach, Halo: s.Halo, Overlap: s.Overlap,
	})
	if err != nil {
		return ModeledStats{}, err
	}
	out := ModeledStats{EpochSeconds: m.EpochTime}
	if m.EpochTime > 0 {
		out.HiddenCommFraction = m.HiddenCommTime / m.EpochTime
	}
	return out, nil
}

// AllocsPerEpoch measures the steady-state heap allocations of one
// training epoch by differencing two otherwise identical Train runs
// whose epoch counts differ by extra: setup, warmup-epoch, and teardown
// allocations cancel, leaving extra steady-state epochs. It runs under
// the serial compute backend (the parallel pool's dispatch closures
// allocate by design) with GOMAXPROCS pinned to 1, takes the minimum
// over trials to shed GC noise, and clamps to zero.
//
// A zero result reproduces the TestSteadyStateAllocs* contract from the
// public API: the steady-state epoch loop allocates nothing.
func AllocsPerEpoch(ds *graph.Dataset, s Scenario, base, extra, trials int) (allocs, bytes float64, err error) {
	if base <= 0 {
		base = 3
	}
	if extra <= 0 {
		extra = 4
	}
	if trials <= 0 {
		trials = 3
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(epochs int) (uint64, uint64, error) {
		opts := s.trainOptions(epochs, "")
		opts.Backend = "serial"
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cagnet.Train(ds, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
	}
	bestA, bestB := math.Inf(1), math.Inf(1)
	for t := 0; t < trials; t++ {
		m1, b1, err := run(base)
		if err != nil {
			return 0, 0, err
		}
		m2, b2, err := run(base + extra)
		if err != nil {
			return 0, 0, err
		}
		da := (float64(m2) - float64(m1)) / float64(extra)
		db := (float64(b2) - float64(b1)) / float64(extra)
		if da < bestA {
			bestA = da
		}
		if db < bestB {
			bestB = db
		}
	}
	// Runtime background activity (timers, GC bookkeeping) leaks a few
	// bytes per run into the differencing even when the epoch loop itself
	// allocates nothing; snap sub-floor residue to the exact zero the
	// steady-state contract pins. A real per-epoch allocation is at least
	// one object and tens of bytes, far above the floor.
	allocs = math.Max(0, math.Round(bestA))
	bytes = math.Max(0, math.Round(bestB))
	if allocs == 0 && bytes < allocNoiseFloorBytes {
		bytes = 0
	}
	return allocs, bytes, nil
}

// allocNoiseFloorBytes is the per-epoch byte residue attributed to
// runtime background activity rather than the training loop; see
// AllocsPerEpoch.
const allocNoiseFloorBytes = 64
