package cagnet

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/comm"
)

// TestTrainTCPTransportBitIdentical holds the configurations
// TestOptionMatrix's worlds do not reach — 1d at 3 ranks under LDG with the
// halo exchange, 1.5d read overlapped, besides 2d — to its transport
// invariance: over "tcp" the in-process run's digest and modeled time, and
// only the tcp run reports wall time and wire samples.
func TestTrainTCPTransportBitIdentical(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 11)
	for _, opts := range []TrainOptions{
		{Algorithm: "2d", Ranks: 4},
		{Algorithm: "1d", Ranks: 3, HaloExchange: true, Partitioner: "ldg"},
		{Algorithm: "1.5d", Ranks: 4, Overlap: true},
	} {
		t.Run(opts.Algorithm, func(t *testing.T) {
			opts.Epochs, opts.Seed = 3, 5
			digests, modeled := map[string]string{}, map[string]float64{}
			for _, transport := range []string{"", "tcp"} {
				opts.Transport = transport
				rep, err := Train(ds, opts)
				if err == nil {
					err = errors.Join(agree(digests, "", rep.Digest(), "digest"),
						agree(modeled, "", rep.ModeledSeconds, "modeled time"), wireMeasured(opts, rep))
				}
				if err != nil {
					t.Fatalf("transport %q: %v", transport, err)
				}
			}
		})
	}
}

// TestTrainTransportValidation covers the rejections.
func TestTrainTransportValidation(t *testing.T) {
	ds := RandomDataset(6, 4, 6, 4, 3, 12)
	if _, err := Train(ds, TrainOptions{Algorithm: "serial", Transport: "tcp", Epochs: 1}); err == nil {
		t.Fatal("serial accepted the tcp transport")
	}
	if _, err := Train(ds, TrainOptions{Algorithm: "2d", Ranks: 4, Transport: "quic", Epochs: 1}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestTrainRankWorldReport: a world whose ranks each call TrainRank over
// their own dialled endpoint trains Train's model, and rank 0's report is
// the world's — the modeled time, hidden communication and per-category
// charges of the run that hosts every rank, plus the wall time and every
// rank's wire samples. The other ranks return without an output.
func TestTrainRankWorldReport(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 11)
	opts := TrainOptions{Algorithm: "1d", Ranks: 3, HaloExchange: true, Partitioner: "ldg", Overlap: true, Epochs: 3, Transport: "tcp"}
	want, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	co, err := comm.NewCoordinator("127.0.0.1:0", opts.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve()
	reports := make([]*TrainReport, opts.Ranks)
	errs := make([]error, opts.Ranks)
	var wg sync.WaitGroup
	for r := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := comm.DialTCP(co.Addr(), r, opts.Ranks)
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			reports[r], errs[r] = TrainRank(ds, opts, tr)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	got := reports[0]
	if got.Digest() != want.Digest() {
		t.Errorf("rank 0 digest %s, Train's %s", got.Digest(), want.Digest())
	}
	if got.ModeledSeconds != want.ModeledSeconds || got.HiddenCommSeconds != want.HiddenCommSeconds {
		t.Errorf("rank 0 reports %v s modeled, %v s hidden; Train %v s, %v s",
			got.ModeledSeconds, got.HiddenCommSeconds, want.ModeledSeconds, want.HiddenCommSeconds)
	}
	if !maps.Equal(got.TimeByCategory, want.TimeByCategory) || !maps.Equal(got.WordsByCategory, want.WordsByCategory) {
		t.Errorf("rank 0 charges %v / %v words, Train's %v / %v",
			got.TimeByCategory, got.WordsByCategory, want.TimeByCategory, want.WordsByCategory)
	}
	if got.OutputRows != want.OutputRows || got.MeasuredSeconds <= 0 || got.WireSamples != want.WireSamples {
		t.Errorf("rank 0 reports a %d-row output, %v s measured over %d wire samples; Train a %d-row output over %d",
			got.OutputRows, got.MeasuredSeconds, got.WireSamples, want.OutputRows, want.WireSamples)
	}
	for r, rep := range reports[1:] {
		if rep.OutputRows != 0 || rep.Losses != nil {
			t.Errorf("rank %d reports an output (%d rows) or losses", r+1, rep.OutputRows)
		}
	}
}

// TestTrainRankRejectsForeignWorld: the options name the world the
// endpoint belongs to, or TrainRank refuses before training.
func TestTrainRankRejectsForeignWorld(t *testing.T) {
	ds := RandomDataset(6, 4, 6, 4, 3, 12)
	co, err := comm.NewCoordinator("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve()
	tr, err := comm.DialTCP(co.Addr(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, opts := range []TrainOptions{
		{Algorithm: "1d", Ranks: 2, Transport: "tcp"},
		{Algorithm: "1d", Ranks: 1},
		{Algorithm: "1d", Ranks: 1, Transport: "inproc"},
	} {
		if _, err := TrainRank(ds, opts, tr); err == nil {
			t.Errorf("%+v accepted over a 1-rank tcp endpoint", opts)
		}
	}
}
