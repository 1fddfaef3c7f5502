package cagnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tolerance"
)

// TestOptionMatrix runs every combination of the options that pick a member
// of the CAGNET family — decomposition and rank count, replication factor,
// halo exchange, partitioner, overlap, precision, transport — with and
// without a checkpoint knob that has no directory. For each one Validate
// and Train give the same verdict: both accept, or both reject with the
// same error, which names an option the combination sets and never comes
// from a started rank ("tcp rank"). Every accepted combination trains two
// epochs to the serial losses at its precision.
func TestOptionMatrix(t *testing.T) {
	ds := RandomDataset(5, 4, 6, 4, 3, 35) // 32 vertices
	worlds := []struct {
		algo  string
		ranks int
	}{
		{"serial", 1}, {"1d", 2}, {"1.5d", 4}, {"2d", 4}, {"3d", 8},
		{"2d", 5}, {"3d", 9}, // not a square, not a cube
	}
	partitioners := []string{"", "block", "random", "ldg"}
	precisions := []string{"", "f32"}
	checkpoints := []CheckpointOptions{{}, {Every: 1}}

	serial := map[string][]float64{}
	for _, precision := range precisions {
		rep, err := Train(ds, TrainOptions{Algorithm: "serial", Epochs: 2, Precision: precision})
		if err != nil {
			t.Fatal(err)
		}
		serial[precision] = rep.Losses
	}

	var accepted, rejected int
	for _, w := range worlds {
		for c := 0; c <= 2; c++ {
			for _, halo := range []bool{false, true} {
				for _, partitioner := range partitioners {
					for _, overlap := range []bool{false, true} {
						for _, precision := range precisions {
							for _, transport := range []string{"", "tcp"} {
								for _, ckpt := range checkpoints {
									o := TrainOptions{
										Algorithm: w.algo, Ranks: w.ranks, Epochs: 2,
										ReplicationFactor: c, HaloExchange: halo, Partitioner: partitioner,
										Overlap: overlap, Precision: precision, Transport: transport,
										Checkpoint: ckpt,
									}
									if err := checkVerdict(ds, o, serial[precision]); err != nil {
										t.Errorf("%+v: %v", o, err)
									} else if o.Validate() == nil {
										accepted++
									} else {
										rejected++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d combinations: %d train, %d rejected", accepted+rejected, accepted, rejected)
}

// checkVerdict runs o through Validate and Train and reports how they
// break the contract TestOptionMatrix states, or nil.
func checkVerdict(ds *graph.Dataset, o TrainOptions, serial []float64) error {
	verr := o.Validate()
	rep, terr := Train(ds, o)
	if fmt.Sprint(verr) != fmt.Sprint(terr) {
		return fmt.Errorf("Validate says %v, Train %v", verr, terr)
	}
	if verr == nil {
		return tolerance.CloseSlice("losses against serial", rep.Losses, serial, 1e-9, 1e-9)
	}
	msg := verr.Error()
	if strings.Contains(msg, "tcp rank") {
		return fmt.Errorf("rejected by a started rank: %v", verr)
	}
	// The options the combination sets, as the errors name them.
	named := []string{"rank count", "replication factor"}
	if o.HaloExchange {
		named = append(named, "halo")
	}
	if o.Partitioner != "" {
		named = append(named, "partitioner")
	}
	if o.Overlap {
		named = append(named, "overlap")
	}
	if o.Precision != "" {
		named = append(named, "precision")
	}
	if o.Transport != "" {
		named = append(named, "transport")
	}
	if o.Checkpoint != (CheckpointOptions{}) {
		named = append(named, "Checkpoint.Dir")
	}
	for _, name := range named {
		if strings.Contains(msg, name) {
			return nil
		}
	}
	return fmt.Errorf("error %q names none of %q", msg, named)
}
