package core

import (
	"fmt"
	"testing"

	"repro/internal/nn"
)

// Engine-level epoch benchmarks: unlike the Train-based benchmarks in the
// repository root, these warm the workspaces and the payload pool
// before the timer starts, so the reported time and allocs/op are the pure
// steady-state epoch cost. On one worker allocs/op is exactly 0; more
// workers add only the pool-dispatch closures.

// benchWorkers pairs the epoch benchmarks: "serial" runs one worker,
// "parallel" eight, which divided among four ranks still partitions.
var benchWorkers = []struct {
	name    string
	workers int
}{{"serial", 1}, {"parallel", 8}}

func benchEngineEpochSerial(b *testing.B, workers int) {
	useWorkers(b, workers)
	epoch := warmSerialEpoch(testProblem(b, 2048, 32, 32, 8, 1, 81), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

func BenchmarkEngineEpochSerial(b *testing.B) {
	for _, c := range benchWorkers {
		b.Run(c.name, func(b *testing.B) {
			benchEngineEpochSerial(b, c.workers)
		})
	}
}

// BenchmarkEngineEpochKernels measures the warmed steady-state epoch on
// each kernel path (the reference scalar baseline, the default). Every
// sub-benchmark must report 0 B/op — the 0-alloc guarantee covers each
// path, not just the default.
func BenchmarkEngineEpochKernels(b *testing.B) {
	configs := []struct {
		name      string
		reference bool
	}{
		{"reference", true},
		{"default", false},
	}
	useWorkers(b, 1)
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			epoch := warmSerialEpoch(testProblem(b, 2048, 32, 32, 8, 1, 81), tc.reference)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch()
			}
		})
	}
}

// benchEngineEpochDist measures steady-state epochs of a distributed
// trainer, driving all ranks in lockstep from the benchmark goroutine.
func benchEngineEpochDist(b *testing.B, tr rankRunner, ranks, workers int) {
	useWorkers(b, workers)
	p := testProblem(b, 2048, 32, 32, 8, 1, 82)
	const warmup = 2
	start := make(chan struct{}, ranks)
	done := make(chan struct{}, ranks)
	errCh := make(chan error, 1)
	go func() {
		errCh <- tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
			eng := newEngine(ops, cfg, prob)
			eng.aggregateInput() // T¹, as run() obtains it: warm-up, never a measured epoch
			weights := nn.InitWeights(cfg)
			for i := 0; i < warmup+b.N; i++ {
				<-start
				eng.epoch(weights)
				ops.endEpoch()
				done <- struct{}{}
			}
			return nil
		})
	}()
	step := func() {
		for i := 0; i < ranks; i++ {
			start <- struct{}{}
		}
		for i := 0; i < ranks; i++ {
			<-done
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if err := <-errCh; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineEpochOneD(b *testing.B) {
	for _, c := range benchWorkers {
		b.Run(c.name, func(b *testing.B) {
			benchEngineEpochDist(b, NewOneD(4, testMach), 4, c.workers)
		})
	}
}

func BenchmarkEngineEpochTwoD(b *testing.B) {
	for _, c := range benchWorkers {
		b.Run(c.name, func(b *testing.B) {
			benchEngineEpochDist(b, NewTwoD(4, testMach), 4, c.workers)
		})
	}
}

func BenchmarkEngineEpochThreeD(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchEngineEpochDist(b, NewThreeD(8, testMach), 8, 1)
	})
}

// BenchmarkHaloEpochOneD pairs broadcast vs halo exchange at the epoch
// level, steady state.
func BenchmarkHaloEpochOneD(b *testing.B) {
	for _, halo := range []bool{false, true} {
		b.Run(fmt.Sprintf("halo=%v", halo), func(b *testing.B) {
			tr := NewOneD(4, testMach)
			tr.Halo = halo
			benchEngineEpochDist(b, tr, 4, 1)
		})
	}
}
