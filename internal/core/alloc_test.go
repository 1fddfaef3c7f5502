package core

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// This file asserts that after a warm-up epoch has populated the workspaces
// and the fabric's payload pool, one engine epoch of every trainer performs
// zero heap allocations.
//
// The distributed tests run on a one-worker pool, where every rank's
// kernels run inline; the serial test also at two and NumCPU workers, where
// the pool splits every product (parallel.Dispatcher: no allocation either
// way). GOMAXPROCS is pinned to 1 by AllocsPerRun itself; the simulated
// ranks still run as goroutines and exercise the full collective
// choreography.

// useWorkers sets the shared pool to n workers for the rest of the test or
// benchmark, restoring the previous count when it ends.
func useWorkers(tb testing.TB, n int) {
	prev := parallel.Workers()
	parallel.SetWorkers(n)
	tb.Cleanup(func() { parallel.SetWorkers(prev) })
}

// rankRunner is the runRanks surface the distributed trainers share.
type rankRunner interface {
	runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error
}

// lockstep returns the body every rank runs — total epochs, each started
// by the driver — and the driver's function that runs one epoch on all
// ranks and waits for it.
func lockstep(ranks, total int) (body func(ops layerOps, cfg nn.Config, prob Problem) error, oneEpoch func()) {
	start := make(chan struct{}, ranks)
	done := make(chan struct{}, ranks)
	body = func(ops layerOps, cfg nn.Config, prob Problem) error {
		eng := newEngine(ops, cfg, prob)
		eng.aggregateInput() // T¹, as run() obtains it: warm-up, never a measured epoch
		weights := nn.InitWeights(cfg)
		for i := 0; i < total; i++ {
			<-start
			eng.epoch(weights)
			ops.endEpoch()
			done <- struct{}{}
		}
		return nil
	}
	oneEpoch = func() {
		for i := 0; i < ranks; i++ {
			start <- struct{}{}
		}
		for i := 0; i < ranks; i++ {
			<-done
		}
	}
	return body, oneEpoch
}

// steadyStateAllocs drives warmup+measured epochs across all ranks of tr
// in lockstep and returns the average allocations of one full epoch
// (epoch + endEpoch on every rank). It fails unless the ranks' wire meter
// recorded samples during the measured epochs, so the count covers it, and
// if those epochs allocated more than maxEpochBytes in all.
func steadyStateAllocs(t *testing.T, tr rankRunner, p Problem, ranks int) float64 {
	t.Helper()
	const warmup = 3
	const runs = 5
	// AllocsPerRun invokes its func runs+1 times.
	body, oneEpoch := lockstep(ranks, warmup+runs+1)
	errCh := make(chan error, 1)
	go func() { errCh <- tr.runRanks(p, body) }()
	for i := 0; i < warmup; i++ {
		oneEpoch()
	}
	// Between epochs every rank waits in lockstep, so its ledger is safe
	// to read.
	cl := tr.(DistTrainer).Cluster()
	samples := cl.SumWire().Samples
	avg, bytes := epochAllocs(runs, oneEpoch)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	requireMetered(t, cl, samples)
	requireEpochBytes(t, runs, bytes)
	return avg
}

// maxEpochBytes bounds the bytes an allocation test's measured epochs
// allocate in all. testing.AllocsPerRun divides mallocs by runs as
// integers, so a buffer that grows by amortised doubling — a few objects
// over the runs — reads 0 per epoch; its bytes do not. The simulated ranks'
// goroutines may still draw one small runtime object now and then (48 or
// 96 bytes, in a few runs of fifty), which the bound leaves room for.
const maxEpochBytes = 512

// epochAllocs runs epoch under testing.AllocsPerRun(runs, epoch), returns
// its average, and the bytes the runs it measures — every call but the
// first — allocated in all.
func epochAllocs(runs int, epoch func()) (avg float64, bytes uint64) {
	var before, after runtime.MemStats
	calls := 0
	avg = testing.AllocsPerRun(runs, func() {
		if calls == 1 {
			runtime.ReadMemStats(&before)
		}
		epoch()
		if calls++; calls == runs+1 {
			runtime.ReadMemStats(&after)
		}
	})
	return avg, after.TotalAlloc - before.TotalAlloc
}

// requireEpochBytes fails if the runs measured epochs allocated more than
// maxEpochBytes.
func requireEpochBytes(t *testing.T, runs int, bytes uint64) {
	t.Helper()
	if bytes > maxEpochBytes {
		t.Fatalf("%d steady-state epochs allocate %d bytes in all, want ≤ %d", runs, bytes, maxEpochBytes)
	}
}

// requireMetered fails unless the hosted ranks' wire sums count more
// samples than before.
func requireMetered(t *testing.T, cl *comm.Cluster, before int64) {
	t.Helper()
	if after := cl.SumWire().Samples; after <= before {
		t.Fatalf("wire sums count %d samples after the measured epochs, %d before", after, before)
	}
}

// warmSerialEpoch builds the serial engine for p, on the reference kernels
// when ref is set, warms it as run() would — T¹, then two epochs to size
// the workspace — and returns one steady-state epoch.
func warmSerialEpoch(p Problem, ref bool) func() {
	cfg := p.Config.WithDefaults()
	eng := newSerialEngine(cfg, p, ref)
	eng.aggregateInput() // T¹, as run() obtains it: warm-up, never a measured epoch
	weights := nn.InitWeights(cfg)
	epoch := func() {
		eng.epoch(weights)
		eng.ops.endEpoch()
	}
	epoch()
	epoch()
	return epoch
}

// multiplyFirst are widths whose layers 2 and 3 both multiply first, each
// over the nonzeros of the ReLU output before it; the allocation tests' other
// problem, {16, 16, 8}, has one such layer after an aggregate-first one.
var multiplyFirst = []int{16, 12, 8, 4}

// allocProblem is the allocation tests' problem, with widths when given.
func allocProblem(t *testing.T, widths []int, seed int64) Problem {
	if widths == nil {
		return testProblem(t, 256, 16, 16, 8, 1, seed)
	}
	p := testProblem(t, 256, widths[0], widths[1], widths[len(widths)-1], 1, seed)
	p.Config.Widths = widths
	return p
}

// TestSteadyStateAllocsSerial: the serial trainer's epoch must allocate
// nothing once the workspace is warm — on both kernel paths, default and
// reference, and at every worker count: with more than one, every product
// of the problem is large enough for the pool to split it.
func TestSteadyStateAllocsSerial(t *testing.T) {
	cases := []struct {
		name      string
		reference bool
		widths    []int
		workers   int
	}{
		{"default", false, nil, 1},
		{"reference", true, nil, 1},
		{"multiply-first", false, multiplyFirst, 1},
		{"workers-2", false, nil, 2},
		{"workers-NumCPU", false, nil, runtime.NumCPU()},
		{"multiply-first-workers-2", false, multiplyFirst, 2},
		{"multiply-first-workers-NumCPU", false, multiplyFirst, runtime.NumCPU()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			useWorkers(t, tc.workers)
			const runs = 5
			epoch := warmSerialEpoch(allocProblem(t, tc.widths, 71), tc.reference)
			avg, bytes := epochAllocs(runs, epoch)
			if avg != 0 {
				t.Fatalf("%s steady-state epoch allocates %.1f times, want 0", tc.name, avg)
			}
			requireEpochBytes(t, runs, bytes)
		})
	}
}

// TestSteadyStateAllocsDistributed: every distributed trainer's epoch —
// collectives, halo exchanges, SUMMA broadcasts, transpose exchange, wire
// meter and all — must allocate nothing in steady state across all
// simulated ranks.
// Every trainer pipelines its collectives: the double buffers come from the
// workspace/payload arenas, and Request objects are pooled and recycled by
// EpochDone.
func TestSteadyStateAllocsDistributed(t *testing.T) {
	useWorkers(t, 1)
	cases := []struct {
		name   string
		tr     rankRunner
		ranks  int
		widths []int
	}{
		{"1d", NewOneD(4, testMach), 4, nil},
		{"1d-multiply-first", NewOneD(4, testMach), 4, multiplyFirst},
		{"2d-multiply-first", NewTwoD(4, testMach), 4, multiplyFirst},
		{"3d-multiply-first", NewThreeD(8, testMach), 8, multiplyFirst},
		{"1d-halo", func() rankRunner { tr := NewOneD(4, testMach); tr.Halo = true; return tr }(), 4, nil},
		{"1.5d", NewOneFiveD(4, 2, testMach), 4, nil},
		{"1.5d-halo", func() rankRunner { tr := NewOneFiveD(4, 2, testMach); tr.Halo = true; return tr }(), 4, nil},
		{"2d", NewTwoD(4, testMach), 4, nil},
		{"3d", NewThreeD(8, testMach), 8, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := allocProblem(t, tc.widths, 72)
			if avg := steadyStateAllocs(t, tc.tr, p, tc.ranks); avg != 0 {
				t.Fatalf("%s steady-state epoch allocates %.1f times across %d ranks, want 0",
					tc.name, avg, tc.ranks)
			}
		})
	}
}

// TestSteadyStateAllocsTCP is the same contract over the real-socket
// fabric: once the per-rank receive arenas are sized, an epoch of 1d and
// of 2d over loopback TCP at P = 4 allocates no payload memory.
// Goroutine wake-ups on the socket path may allocate a few small runtime
// objects, so both bounds leave room for those and no more: a per-frame
// payload buffer blows through the byte bound at once (before the arena,
// one epoch of this problem allocated ≈ 2.9 MB across the world), and any
// per-frame object, however small, through the object bound — the test
// checks that the epoch sent more frames than it allows objects. The
// wrapped variant puts an empty-plan FaultTransport around every endpoint,
// proving EpochDone's recycle reaches the arena through a wrapper.
func TestSteadyStateAllocsTCP(t *testing.T) {
	useWorkers(t, 1)
	const ranks = 4
	const maxBytesPerEpoch = 64 << 10
	const maxMallocsPerEpoch = 8
	cost := comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta}
	algos := []struct {
		name string
		mk   func() Trainer
	}{
		{"1d", func() Trainer { return NewOneD(ranks, testMach) }},
		// The 2d row keeps the id it had when it chose the pipelined
		// schedule, which every trainer now runs.
		{"2d-overlap", func() Trainer { return NewTwoD(ranks, testMach) }},
	}
	for _, algo := range algos {
		for _, wrapped := range []bool{false, true} {
			name := algo.name
			if wrapped {
				name += "-faultwrapped"
			}
			t.Run(name, func(t *testing.T) {
				comms, err := comm.LocalTCPComms(ranks, cost)
				if err != nil {
					t.Fatal(err)
				}
				if wrapped {
					for i, c := range comms {
						comms[i] = comm.NewTransportComm(comm.NewFaultTransport(c.Transport(), nil), cost)
					}
				}
				cl := comm.ClusterOf(comms...)
				defer cl.Close()
				tr := algo.mk()
				if err := SetCluster(tr, cl); err != nil {
					t.Fatal(err)
				}
				p := testProblem(t, 1024, 32, 32, 8, 1, 73)

				const warmup, runs = 3, 5
				body, oneEpoch := lockstep(ranks, warmup+runs)
				errCh := make(chan error, 1)
				go func() { errCh <- tr.(rankRunner).runRanks(p, body) }()
				for i := 0; i < warmup; i++ {
					oneEpoch()
				}
				// Between epochs every rank waits in lockstep, so its ledger
				// is safe to read.
				framesSent := func() (n int64) {
					for r := 0; r < ranks; r++ {
						n += cl.Ledger(r).Reading().Sent.Msgs
					}
					return n
				}
				var before, after runtime.MemStats
				framesBefore, samples := framesSent(), cl.SumWire().Samples
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					oneEpoch()
				}
				runtime.ReadMemStats(&after)
				frames := (framesSent() - framesBefore) / runs
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
				requireMetered(t, cl, samples)
				if perEpoch := (after.TotalAlloc - before.TotalAlloc) / runs; perEpoch > maxBytesPerEpoch {
					t.Fatalf("%s steady-state epoch allocates %d bytes across %d ranks over TCP, want ≤ %d",
						name, perEpoch, ranks, maxBytesPerEpoch)
				}
				if perEpoch := (after.Mallocs - before.Mallocs) / runs; perEpoch > maxMallocsPerEpoch {
					t.Fatalf("%s steady-state epoch allocates %d objects across %d ranks over TCP, want ≤ %d",
						name, perEpoch, ranks, maxMallocsPerEpoch)
				}
				if frames <= maxMallocsPerEpoch {
					t.Fatalf("%s epoch sent %d frames, want more than the %d objects allowed, or a per-frame allocation could pass",
						name, frames, maxMallocsPerEpoch)
				}
			})
		}
	}
}
