package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/parallel"
)

// trainOverTCP runs one trainer instance per rank over a loopback TCP
// fabric and returns rank 0's result.
func trainOverTCP(t *testing.T, algo string, p, c int, prob Problem) *Result {
	t.Helper()
	cost := comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta}
	comms, err := comm.LocalTCPComms(p, cost)
	if err != nil {
		t.Fatalf("LocalTCPComms: %v", err)
	}
	defer func() {
		for _, cm := range comms {
			cm.Transport().Close()
		}
	}()
	defer parallel.EnterRanks(p)()

	results := make([]*Result, p)
	errs := make([]error, p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr, err := NewTrainerReplicated(algo, p, c, testMach)
				if err != nil {
					errs[rank] = err
					return
				}
				if err := SetTransportComm(tr, comms[rank]); err != nil {
					errs[rank] = err
					return
				}
				results[rank], errs[rank] = tr.Train(prob)
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("TCP training deadlocked")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
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

			got := trainOverTCP(t, tc.algo, tc.p, tc.c, prob)

			if len(got.Weights) != len(want.Weights) {
				t.Fatalf("weight count %d over TCP, %d in-process", len(got.Weights), len(want.Weights))
			}
			for l := range want.Weights {
				gw, ww := got.Weights[l], want.Weights[l]
				if gw.Rows != ww.Rows || gw.Cols != ww.Cols {
					t.Fatalf("layer %d shape %dx%d over TCP, %dx%d in-process", l, gw.Rows, gw.Cols, ww.Rows, ww.Cols)
				}
				for i := range ww.Data {
					if math.Float64bits(gw.Data[i]) != math.Float64bits(ww.Data[i]) {
						t.Fatalf("layer %d weight[%d]: %v over TCP, %v in-process", l, i, gw.Data[i], ww.Data[i])
					}
				}
			}
			for e := range want.Losses {
				if math.Float64bits(got.Losses[e]) != math.Float64bits(want.Losses[e]) {
					t.Fatalf("epoch %d loss: %v over TCP, %v in-process", e, got.Losses[e], want.Losses[e])
				}
			}
			for i := range want.Output.Data {
				if math.Float64bits(got.Output.Data[i]) != math.Float64bits(want.Output.Data[i]) {
					t.Fatalf("output[%d]: %v over TCP, %v in-process", i, got.Output.Data[i], want.Output.Data[i])
				}
			}
		})
	}
}

// TestSetTransportCommValidation covers the rejection paths for each of the
// four distributed trainers — they share one code path, exercised here under
// every name: an endpoint of the wrong world size is rejected, a matching
// one accepted, and the serial trainer takes none.
func TestSetTransportCommValidation(t *testing.T) {
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
			comms, err := comm.LocalTCPComms(tc.ranks, comm.CostParams{Alpha: 1e-6, Beta: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, cm := range comms {
					cm.Transport().Close()
				}
			}()
			if err := SetTransportComm(NewSerial(), comms[0]); err == nil {
				t.Fatal("serial trainer accepted a transport endpoint")
			}
			mismatched, err := NewTrainer(tc.algo, tc.wrong, testMach)
			if err != nil {
				t.Fatal(err)
			}
			if err := SetTransportComm(mismatched, comms[0]); err == nil {
				t.Fatalf("%s trainer accepted a world-size-%d endpoint for %d ranks", tc.algo, tc.ranks, tc.wrong)
			}
			matching, err := NewTrainer(tc.algo, tc.ranks, testMach)
			if err != nil {
				t.Fatal(err)
			}
			if err := SetTransportComm(matching, comms[0]); err != nil {
				t.Fatalf("%s trainer rejected a matching endpoint: %v", tc.algo, err)
			}
			if got := matching.(distributed).shell().ext; got != comms[0] {
				t.Fatalf("%s trainer holds endpoint %p after SetTransportComm, want %p", tc.algo, got, comms[0])
			}
		})
	}
}
