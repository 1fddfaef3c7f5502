package core

import (
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

			requireSameLedgers(t, "over TCP", tr.(DistTrainer).Cluster(), ref.(DistTrainer).Cluster())
		})
	}
}
