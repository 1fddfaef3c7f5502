package cagnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tolerance"
)

// TestOptionMatrix runs every combination of the options that pick a member
// of the CAGNET family — decomposition and rank count, replication factor,
// halo exchange, partitioner, overlap, transport — with and
// without a checkpoint knob that has no directory. For each one Validate
// and Train give the same verdict: both accept, or both reject with the
// same error, which names an option the combination sets and never comes
// from a started rank ("tcp rank"). Every accepted combination trains two
// epochs to the serial losses, and the invariances hold
// across them (checkInvariance): combinations that differ only in
// transport, overlap, halo, or partitioner "" against "block" share a
// digest; across transports, the modeled time too; and only a tcp run
// reports wall time and wire samples.
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
	checkpoints := []CheckpointOptions{{}, {Every: 1}}

	ref, err := Train(ds, TrainOptions{Algorithm: "serial", Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial := ref.Losses

	digests, modeled := map[string]string{}, map[string]float64{}
	var accepted, rejected int
	for _, w := range worlds {
		for c := 0; c <= 2; c++ {
			for _, halo := range []bool{false, true} {
				for _, partitioner := range partitioners {
					for _, overlap := range []bool{false, true} {
						for _, transport := range []string{"", "tcp"} {
							for _, ckpt := range checkpoints {
								o := TrainOptions{
									Algorithm: w.algo, Ranks: w.ranks, Epochs: 2,
									ReplicationFactor: c, HaloExchange: halo, Partitioner: partitioner,
									Overlap: overlap, Transport: transport,
									Checkpoint: ckpt,
								}
								rep, err := checkVerdict(ds, o, serial)
								if rep != nil && err == nil {
									part := partitioner
									if part == "block" {
										part = ""
									}
									err = errors.Join(
										agree(digests, fmt.Sprint(w, c, part, ckpt), rep.Digest(), "digest"),
										agree(modeled, fmt.Sprint(w, c, halo, partitioner, overlap, ckpt), rep.ModeledSeconds, "modeled time"),
										wireMeasured(o, rep))
								}
								switch {
								case err != nil:
									t.Errorf("%+v: %v", o, err)
								case rep != nil:
									accepted++
								default:
									rejected++
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
// break the contract TestOptionMatrix states, or nil, with the report of
// an accepted combination.
func checkVerdict(ds *graph.Dataset, o TrainOptions, serial []float64) (*TrainReport, error) {
	verr := o.Validate()
	rep, terr := Train(ds, o)
	if fmt.Sprint(verr) != fmt.Sprint(terr) {
		return nil, fmt.Errorf("Validate says %v, Train %v", verr, terr)
	}
	if verr == nil {
		return rep, tolerance.CloseSlice("losses against serial", rep.Losses, serial, 1e-9, 1e-9)
	}
	msg := verr.Error()
	if strings.Contains(msg, "tcp rank") {
		return nil, fmt.Errorf("rejected by a started rank: %v", verr)
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
	if o.Transport != "" {
		named = append(named, "transport")
	}
	if o.Checkpoint != (CheckpointOptions{}) {
		named = append(named, "Checkpoint.Dir")
	}
	for _, name := range named {
		if strings.Contains(msg, name) {
			return nil, nil
		}
	}
	return nil, fmt.Errorf("error %q names none of %q", msg, named)
}

// agree records v as the class key's value the first time and otherwise
// reports a run of the class that differs from it.
func agree[V comparable](seen map[string]V, key string, v V, what string) error {
	want, ok := seen[key]
	if !ok {
		seen[key] = v
		return nil
	}
	if v != want {
		return fmt.Errorf("%s %v, another run of its class %v", what, v, want)
	}
	return nil
}

// wireMeasured reports a run whose transport and wall-clock figures
// disagree: a tcp run measures its wall time and wire samples, an
// in-process one reports neither.
func wireMeasured(o TrainOptions, rep *TrainReport) error {
	if tcp := o.Transport == "tcp"; tcp != (rep.MeasuredSeconds > 0) || tcp != (rep.WireSamples > 0) {
		return fmt.Errorf("transport %q: measured %v s over %d wire samples", o.Transport, rep.MeasuredSeconds, rep.WireSamples)
	}
	return nil
}
