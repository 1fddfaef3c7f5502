package cagnet

import (
	"errors"
	"testing"
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
