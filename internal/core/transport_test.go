package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/nn"
)

// tcpCluster hosts a p-rank world over loopback sockets, closed with the
// test.
func tcpCluster(t *testing.T, p int) *comm.Cluster {
	t.Helper()
	comms, err := comm.LocalTCPComms(p, comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta})
	if err != nil {
		t.Fatalf("LocalTCPComms: %v", err)
	}
	cl := comm.ClusterOf(comms...)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// trainOn trains tr on cl under a deadlock watchdog.
func trainOn(t *testing.T, tr Trainer, cl *comm.Cluster, prob Problem) *Result {
	t.Helper()
	if err := SetCluster(tr, cl); err != nil {
		t.Fatal(err)
	}
	var res *Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = tr.Train(prob)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("TCP training deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// trainOverTCP trains the named algorithm over a loopback TCP fabric.
func trainOverTCP(t *testing.T, algo string, p, c int, prob Problem) *Result {
	t.Helper()
	tr, err := NewTrainerReplicated(algo, p, c, testMach)
	if err != nil {
		t.Fatal(err)
	}
	return trainOn(t, tr, tcpCluster(t, p), prob)
}

// TestTrainTCPBitIdentical is the tentpole acceptance pin: the same
// trainer on the same seed must produce bit-identical weights, losses,
// and outputs whether ranks exchange through in-process channels or real
// TCP sockets.
func TestTrainTCPBitIdentical(t *testing.T) {
	cases := []struct {
		algo string
		p, c int
	}{
		{"1d", 3, 0},
		{"1.5d", 4, 2},
		{"2d", 4, 0},
		{"3d", 8, 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-p%d", tc.algo, tc.p), func(t *testing.T) {
			prob := testProblem(t, 24, 6, 5, 3, 3, 77)

			ref, err := NewTrainerReplicated(tc.algo, tc.p, tc.c, testMach)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Train(prob)
			if err != nil {
				t.Fatal(err)
			}

			requireSameRun(t, trainOverTCP(t, tc.algo, tc.p, tc.c, prob), want)
		})
	}
}

// requireSameRun fails unless a run over TCP (got) has the in-process run's
// weights, losses and output, bit for bit.
func requireSameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("weight count %d over TCP, %d in-process", len(got.Weights), len(want.Weights))
	}
	for l := range want.Weights {
		gw, ww := got.Weights[l], want.Weights[l]
		if gw.Rows != ww.Rows || gw.Cols != ww.Cols {
			t.Fatalf("layer %d shape %dx%d over TCP, %dx%d in-process", l, gw.Rows, gw.Cols, ww.Rows, ww.Cols)
		}
		requireSameBits(t, fmt.Sprintf("layer %d weight", l), gw.Data, ww.Data)
	}
	requireSameBits(t, "loss", got.Losses, want.Losses)
	requireSameBits(t, "output", got.Output.Data, want.Output.Data)
}

// requireSameBits fails unless got (over TCP) and want (in-process) hold
// the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values over TCP, %d in-process", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v over TCP, %v in-process", what, i, got[i], want[i])
		}
	}
}

// TestSetClusterValidation covers the rejection paths for each of the
// four distributed trainers — they share one code path, exercised here under
// every name: a cluster of the wrong world size is rejected, a matching
// one accepted, and the serial trainer takes none.
func TestSetClusterValidation(t *testing.T) {
	cases := []struct {
		algo         string
		ranks, wrong int
	}{
		{"1d", 2, 3},
		{"1.5d", 2, 4},
		{"2d", 4, 9},
		{"3d", 8, 27},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			cl := tcpCluster(t, tc.ranks)
			if err := SetCluster(NewSerial(), cl); err == nil {
				t.Fatal("serial trainer accepted a cluster")
			}
			mismatched, err := NewTrainer(tc.algo, tc.wrong, testMach)
			if err != nil {
				t.Fatal(err)
			}
			if err := SetCluster(mismatched, cl); err == nil {
				t.Fatalf("%s trainer accepted a world-size-%d cluster for %d ranks", tc.algo, tc.ranks, tc.wrong)
			}
			matching, err := NewTrainer(tc.algo, tc.ranks, testMach)
			if err != nil {
				t.Fatal(err)
			}
			if err := SetCluster(matching, cl); err != nil {
				t.Fatalf("%s trainer rejected a matching cluster: %v", tc.algo, err)
			}
			if got := matching.(DistTrainer).Cluster(); got != cl {
				t.Fatalf("%s trainer holds cluster %p after SetCluster, want %p", tc.algo, got, cl)
			}
		})
	}
}

// TestDecomposeOncePerTrain: a process that hosts the whole world
// decomposes the problem once per Train — the validation, the symmetry
// scan, 2D's global transpose — whatever its ranks talk over, and the
// fabric leaves no mark on the modeled accounting: every rank's ledger
// over loopback TCP equals the in-process one in every category, peak
// memory included, to the word.
func TestDecomposeOncePerTrain(t *testing.T) {
	const p = 4
	// The "-overlap" names are the ids the rows had when they chose the
	// pipelined schedule, which every trainer now runs.
	cases := []struct {
		name    string
		algo    string
		c       int
		ldgHalo bool
	}{
		{"1d-halo-ldg-overlap", "1d", 0, true},
		{"1.5d-c2", "1.5d", 2, false},
		{"2d-overlap", "2d", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, g := testProblemGraph(t, 48, 6, 5, 3, 3, 79)
			// build returns the configured trainer, its problem, and the
			// count its wrapped decompose keeps.
			build := func() (Trainer, Problem, *int) {
				tr, err := NewTrainerReplicated(tc.algo, p, tc.c, testMach)
				if err != nil {
					t.Fatal(err)
				}
				prob := base
				if tc.ldgHalo {
					if _, err := ConfigureRowDecomposition(tr, &prob, g, "ldg", true, 7); err != nil {
						t.Fatal(err)
					}
				}
				d := tr.(distributed).shell()
				calls, inner := new(int), d.decompose
				d.decompose = func(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error) {
					*calls++
					return inner(p, cfg)
				}
				return tr, prob, calls
			}

			ref, prob, refCalls := build()
			if _, err := ref.Train(prob); err != nil {
				t.Fatal(err)
			}
			tr, prob, calls := build()
			trainOn(t, tr, tcpCluster(t, p), prob)
			if *refCalls != 1 || *calls != 1 {
				t.Fatalf("decompose ran %d times in-process and %d times over TCP for one Train each, want 1 and 1", *refCalls, *calls)
			}

			for r := 0; r < p; r++ {
				want, got := ref.(DistTrainer).Cluster().Ledger(r), tr.(DistTrainer).Cluster().Ledger(r)
				for _, cat := range comm.AllCategories {
					if got.ModelWords[cat] != want.ModelWords[cat] || got.ModelMsgs[cat] != want.ModelMsgs[cat] ||
						math.Float64bits(got.ModelTime[cat]) != math.Float64bits(want.ModelTime[cat]) {
						t.Errorf("rank %d %s: (%d words, %d msgs, %v s) over TCP, (%d, %d, %v) in-process", r, cat,
							got.ModelWords[cat], got.ModelMsgs[cat], got.ModelTime[cat],
							want.ModelWords[cat], want.ModelMsgs[cat], want.ModelTime[cat])
					}
				}
				if got.PeakMemWords != want.PeakMemWords {
					t.Errorf("rank %d: peak memory %d words over TCP, %d in-process", r, got.PeakMemWords, want.PeakMemWords)
				}
				if got.PhysWordsSent != want.PhysWordsSent || got.PhysMsgsSent != want.PhysMsgsSent ||
					got.PhysWordsRecv != want.PhysWordsRecv || got.PhysMsgsRecv != want.PhysMsgsRecv {
					t.Errorf("rank %d: physical traffic %+v over TCP, %+v in-process", r, *got, *want)
				}
				if got.Elapsed() != want.Elapsed() || got.HiddenCommTime() != want.HiddenCommTime() {
					t.Errorf("rank %d: elapsed %v hidden %v over TCP, %v and %v in-process", r,
						got.Elapsed(), got.HiddenCommTime(), want.Elapsed(), want.HiddenCommTime())
				}
			}
		})
	}
}
