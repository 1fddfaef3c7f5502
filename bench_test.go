package cagnet

// Micro-benchmarks of the layers under an epoch, wall clock: the sparse and
// dense kernels (one worker vs the whole pool), the set-up path, and whole
// epochs per trainer. The paper's modeled tables and figures are printed
// by cmd/cagnet-bench; end-to-end wall-clock numbers come from benchmark/.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// datasetCache builds each analog once per process; sweeps reuse it.
var dsCache = map[string]*graph.Dataset{}

func benchDataset(b *testing.B, name string) *graph.Dataset {
	b.Helper()
	key := fmt.Sprintf("%s/short=%v", name, testing.Short())
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	aspec, err := graph.AnalogByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if testing.Short() {
		aspec = aspec.Quick()
	}
	ds := aspec.Build()
	dsCache[key] = ds
	return ds
}

// useWorkers sets the shared pool to n workers for the rest of the test or
// benchmark, restoring the previous count when it ends.
func useWorkers(tb testing.TB, n int) {
	prev := parallel.Workers()
	parallel.SetWorkers(n)
	tb.Cleanup(func() { parallel.SetWorkers(prev) })
}

// kernelWorkers pairs every kernel benchmark: the one-worker baseline
// first, then the whole pool (runtime.NumCPU, or CAGNET_WORKERS), so the
// speedup is tracked run to run.
var kernelWorkers = []struct {
	name    string
	workers int
}{{"serial", 1}, {"parallel", parallel.Workers()}}

// BenchmarkSpMM measures the raw SpMM kernel (dst = A·X, the paper's
// dominant cost, and with Aᵀ for A every forward aggregation too) on the
// reddit-sim normalized adjacency at full scale, one worker vs the pool.
// Both are bit-identical; the pool splits the rows by nonzero count across
// runtime.NumCPU workers (override with CAGNET_WORKERS), so the gflops
// ratio of the pair is the kernel speedup.
func BenchmarkSpMM(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	a := ds.Graph.NormalizedAdjacency()
	rng := rand.New(rand.NewSource(1))
	x := dense.New(a.Cols, ds.FeatureLen())
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	dst := dense.New(a.Rows, x.Cols)
	flops := sparse.SpMMFlops(a, x.Cols)
	for _, c := range kernelWorkers {
		b.Run(c.name, func(b *testing.B) {
			useWorkers(b, c.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpMM(dst, a, x)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// BenchmarkGEMM measures the dense layer product (n x f times f x f at
// reddit-sim scale, the shape of H·W in every layer), one worker vs the pool.
func BenchmarkGEMM(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	n, f := ds.Graph.NumVertices, ds.FeatureLen()
	rng := rand.New(rand.NewSource(3))
	h := dense.New(n, f)
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	w := dense.New(f, f)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst := dense.New(n, f)
	flops := 2 * int64(n) * int64(f) * int64(f)
	for _, c := range kernelWorkers {
		b.Run(c.name, func(b *testing.B) {
			useWorkers(b, c.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dense.Mul(dst, h, w)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// setupScale is the R-MAT scale of the set-up benchmarks' graphs: the
// wall-clock benchmark's (benchmark/workloads.go), cut by 3 under -short.
func setupScale(full int) int {
	if testing.Short() {
		return full - 3
	}
	return full
}

// setupSink keeps the set-up benchmarks' results alive.
var setupSink *sparse.CSR

// BenchmarkNewCSR times the COO→CSR builder alone on the summa2d_dense
// recipe's edge list, repeated edges included. MB/s counts the 16 bytes
// (column index and value) of every nonzero of the result.
func BenchmarkNewCSR(b *testing.B) {
	g := RandomDataset(setupScale(13), 50, 1, 1, 1, 1).Graph
	entries := make([]sparse.Coord, len(g.Edges))
	for k, e := range g.Edges {
		entries[k] = sparse.Coord{Row: e[0], Col: e[1], Val: 1}
	}
	b.SetBytes(int64(sparse.NewCSR(g.NumVertices, g.NumVertices, entries).NNZ()) * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = sparse.NewCSR(g.NumVertices, g.NumVertices, entries)
	}
}

// BenchmarkNormalizedAdjacency times what every Train and TrainRank call
// pays before its first epoch — edge list to
// D^{-1/2}(A+I)D^{-1/2} — on the graphs of two wall-clock workloads.
func BenchmarkNormalizedAdjacency(b *testing.B) {
	for _, tc := range []struct {
		name       string
		edgeFactor int
	}{{"serial_wide", 32}, {"summa2d_dense", 50}} {
		b.Run(tc.name, func(b *testing.B) {
			g := RandomDataset(setupScale(13), tc.edgeFactor, 1, 1, 1, 1).Graph
			b.SetBytes(int64(g.NormalizedAdjacency().NNZ()) * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setupSink = g.NormalizedAdjacency()
			}
		})
	}
}

// datasetSink keeps BenchmarkRandomDataset's results alive.
var datasetSink *graph.Dataset

// BenchmarkRandomDataset times the synthesis every wall-clock pass starts
// with — the R-MAT draws, the symmetrised edge list, the features and the
// labels — on the recipes of two workloads.
func BenchmarkRandomDataset(b *testing.B) {
	for _, tc := range []struct {
		name                                 string
		edgeFactor, features, hidden, labels int
	}{{"serial_wide", 32, 256, 64, 32}, {"summa2d_dense", 50, 64, 16, 41}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				datasetSink = RandomDataset(setupScale(13), tc.edgeFactor, tc.features, tc.hidden, tc.labels, 1)
			}
		})
	}
}

// BenchmarkReorderSym times the relabel of the halo1d_ldg workload: its
// community graph's operator under the LDG partition's contiguous order.
func BenchmarkReorderSym(b *testing.B) {
	g := graph.CommunityRMAT(64, setupScale(8), 8, 3, rand.New(rand.NewSource(1)))
	a := g.NormalizedAdjacency()
	_, order := partition.LDG(g, 4, rand.New(rand.NewSource(1))).ContigLayout()
	b.SetBytes(int64(a.NNZ()) * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = sparse.ReorderSym(a, order)
	}
}

// benchmarkEpochs trains with Epochs = b.N so time/op converges to the
// per-epoch wall-clock cost as N grows; b.ReportAllocs shows the
// amortized allocation count trending to the one-time setup cost divided
// by N (the steady-state epochs themselves allocate nothing — the strict
// zero is asserted by internal/core's AllocsPerRun tests and shown by its
// warmed BenchmarkEngineEpoch* benchmarks).
func benchmarkEpochs(b *testing.B, algo string, ranks int) {
	ds := benchDataset(b, "reddit-sim")
	problem := core.Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: ds.LayerWidths(), LR: 0.01, Seed: 1, Epochs: b.N,
		},
	}
	tr, err := core.NewTrainer(algo, ranks, costmodel.SummitSim)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tr.Train(problem); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEpochSerial measures full-epoch wall-clock of the serial
// reference trainer at reddit-sim scale.
func BenchmarkEpochSerial(b *testing.B) { benchmarkEpochs(b, "serial", 1) }

// BenchmarkEpochSerialWide measures the serial epoch on the wide-feature
// R-MAT analog (f = 256) on each kernel path: reference is the
// pre-optimization scalar baseline, default adds the register tiles and the
// fused and routed ReLU products.
func BenchmarkEpochSerialWide(b *testing.B) {
	configs := []struct {
		name      string
		reference bool
	}{
		{"reference", true},
		{"default", false},
	}
	spec := graph.AnalogSpec{
		Name: "rmat-wide", Scale: 12, EdgeFactor: 16,
		Features: 256, Hidden: 64, Labels: 32, Seed: 7,
	}
	if testing.Short() {
		spec.Scale, spec.EdgeFactor = 10, 8
	}
	ds := spec.Build()
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			problem := core.Problem{
				A:        ds.Graph.NormalizedAdjacency(),
				Features: ds.Features,
				Labels:   ds.Labels,
				Config: nn.Config{
					Widths: ds.LayerWidths(), LR: 0.01, Seed: 1, Epochs: b.N,
				},
			}
			tr := &core.Serial{Reference: tc.reference}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := tr.Train(problem); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEpochOneD measures full-epoch wall-clock of the simulated 1D
// trainer (4 ranks).
func BenchmarkEpochOneD(b *testing.B) { benchmarkEpochs(b, "1d", 4) }

// BenchmarkEpochTwoD measures full-epoch wall-clock of the simulated 2D
// trainer (4 ranks).
func BenchmarkEpochTwoD(b *testing.B) { benchmarkEpochs(b, "2d", 4) }
