package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	cagnet "repro"
	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/tolerance"
)

// quickSpec mirrors the -quick dataset shrink the command applies, so the
// in-process references below train on the identical problem.
func quickSpec(t *testing.T, name string) graph.AnalogSpec {
	t.Helper()
	spec, err := graph.AnalogByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Quick()
}

// TestElasticShrinkResume is the elastic acceptance test: a world of four
// with a zero restart budget loses one rank to chaos, and the supervisor
// must shrink to the three survivors, resume them from the latest
// checkpoint as a new generation (world size adopted from the
// coordinator), and train to completion — with a final model within
// tolerance of an uninterrupted serial run, not bit-identical to it
// (shrinking repartitions the problem, which reassociates the sums).
func TestElasticShrinkResume(t *testing.T) {
	if testing.Short() {
		t.Skip("forks two generations of training processes")
	}
	ckptDir := t.TempDir()
	out, err := trainCmd(t, "-spawn", "-ranks", "4", "-algo", "1d",
		"-dataset", "reddit-sim", "-quick", "-epochs", "6",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1",
		"-max-restarts", "0", "-chaos", "crash@epoch=3").CombinedOutput()
	if err != nil {
		t.Fatalf("elastic spawn run failed: %v\n%s", err, out)
	}
	got := string(out)
	for _, want := range []string{
		"fault injection: crash at epoch 3 (rank 1)",
		"shrinking to 3 survivors and resuming from latest checkpoint",
		"adopted world size 3 from coordinator",
		"world 3 ranks over tcp",
		"resumed from checkpoint at epoch",
		"world completed degraded at 3 of 4 ranks",
		"final training accuracy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// The final snapshot is the shrunken world's model after all 6 epochs.
	path, err := checkpoint.Latest(ckptDir)
	if err != nil || path == "" {
		t.Fatalf("no final checkpoint: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 6 {
		t.Fatalf("final checkpoint at epoch %d, want 6", snap.Epoch)
	}
	if snap.World != 3 || snap.Algorithm != "1d" {
		t.Errorf("final snapshot provenance world=%d algo=%q, want world=3 algo=%q", snap.World, snap.Algorithm, "1d")
	}

	// Reference: the same problem trained serially without interruption,
	// checkpointed so its weights are comparable.
	refDir := t.TempDir()
	spec := quickSpec(t, "reddit-sim")
	report, err := cagnet.Train(spec.Build(), cagnet.TrainOptions{
		Algorithm:  "serial",
		Epochs:     6,
		Checkpoint: cagnet.CheckpointOptions{Dir: refDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	refPath, err := checkpoint.Latest(refDir)
	if err != nil || refPath == "" {
		t.Fatalf("no reference checkpoint: %v", err)
	}
	ref, err := checkpoint.Load(refPath)
	if err != nil {
		t.Fatal(err)
	}

	if err := tolerance.CloseSlice("elastic losses", snap.Losses, report.Losses, 1e-6, 1e-4); err != nil {
		t.Errorf("shrunken run diverged from the uninterrupted serial run: %v", err)
	}
	if len(snap.Weights) != len(ref.Weights) {
		t.Fatalf("%d weight matrices, reference has %d", len(snap.Weights), len(ref.Weights))
	}
	for l := range snap.Weights {
		name := fmt.Sprintf("elastic weights layer %d", l)
		if err := tolerance.Close(name, snap.Weights[l], ref.Weights[l], 1e-6, 1e-4); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestGracefulDrain is the planned-maintenance acceptance test: SIGTERM to
// the supervisor mid-run must finish the current epoch on every rank,
// write a final checkpoint, and exit 0 — never an epoch lost, never a
// nonzero exit.
func TestGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("forks training processes and signals them")
	}
	ckptDir := t.TempDir()
	const epochs = 100000 // far more than ever completes; the drain ends the run
	cmd := trainCmd(t, "-spawn", "-ranks", "2", "-algo", "1d",
		"-dataset", "reddit-sim", "-quick", "-epochs", fmt.Sprint(epochs),
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { cmd.Process.Kill(); cmd.Wait() }()

	// The first checkpoint proves epoch 1 finished — the SIGTERM below
	// lands mid-training, not mid-rendezvous.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if names, _ := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.ckpt")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared; output:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained run exited nonzero: %v\n%s", err, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("drain did not finish; output:\n%s", out.String())
	}

	got := out.String()
	for _, want := range []string{
		"forwarding to all 2 ranks for graceful drain",
		"draining after the current epoch",
		"drained after epoch",
		"final checkpoint written",
		"final training accuracy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// The final checkpoint must be loadable and strictly mid-run.
	path, err := checkpoint.Latest(ckptDir)
	if err != nil || path == "" {
		t.Fatalf("no final checkpoint after drain: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch < 1 || snap.Epoch >= epochs {
		t.Errorf("drained checkpoint at epoch %d, want mid-run", snap.Epoch)
	}

	// The per-epoch figures divide by the epochs the world trained, not by
	// -epochs: s/epoch is the printed total over the drained epoch count,
	// up to the two figures' rounding to 4 decimals.
	var drained int
	if _, err := fmt.Sscanf(got[strings.Index(got, "drained after epoch"):], "drained after epoch %d", &drained); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"measured wall time", "modeled time"} {
		line := outputLine(t, got, prefix)
		var total, perEpoch float64
		if _, err := fmt.Sscanf(line[strings.Index(line, ": ")+2:], "%g s total, %g s/epoch", &total, &perEpoch); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if math.Abs(perEpoch-total/float64(drained)) > 1e-4 {
			t.Errorf("%q: %d epochs drained, want %.4f s/epoch", line, drained, total/float64(drained))
		}
	}
}

// TestShrinkWorld pins the shrink oracle: the next world size must respect
// each algorithm's grid shape and the -min-world floor.
func TestShrinkWorld(t *testing.T) {
	if _, err := costmodel.ProfileByName("summit-v100"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo           string
		world, min, wt int
	}{
		{"1d", 4, 1, 3},
		{"1d", 2, 2, 0}, // floor forbids shrinking
		{"2d", 4, 1, 1}, // 3 and 2 are not perfect squares
		{"2d", 9, 1, 4},
		{"3d", 8, 1, 1},
		{"3d", 8, 2, 0}, // no cube in [2, 7]
		{"1.5d", 4, 1, 3},
	} {
		cfg := config{TrainOptions: cagnet.TrainOptions{Algorithm: tc.algo, Machine: "summit-v100"}, minWorld: tc.min}
		if got := shrinkWorld(cfg, tc.world); got != tc.wt {
			t.Errorf("shrinkWorld(%s, world=%d, min=%d) = %d, want %d", tc.algo, tc.world, tc.min, got, tc.wt)
		}
	}
}

// TestRankWorkers: CAGNET_WORKERS, when it holds a positive count, sizes a
// rank's pool as given; unset (or unusable) the host's cores are divided
// among the world, never below one worker.
func TestRankWorkers(t *testing.T) {
	for _, tc := range []struct {
		env               string
		cpus, world, want int
	}{
		{"", 8, 4, 2},  // unset: the world shares the host
		{"", 8, 3, 2},  // rounds down
		{"1", 8, 4, 1}, // set: single-threaded ranks
		{"3", 8, 4, 3}, // set above the fair share: as given
		{"", 2, 4, 1},  // NumCPU < world: one worker each
		{"0", 2, 4, 1}, // not a positive count: as if unset
		{"x", 8, 2, 4},
	} {
		if got := rankWorkers(tc.env, tc.cpus, tc.world); got != tc.want {
			t.Errorf("rankWorkers(%q, cpus=%d, world=%d) = %d, want %d", tc.env, tc.cpus, tc.world, got, tc.want)
		}
	}
}

// TestCheckpointKeepFlag: -checkpoint-keep bounds the snapshot directory
// while never pruning the latest — after a 5-epoch run with per-epoch
// snapshots and keep=2, exactly the two newest files remain.
func TestCheckpointKeepFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("forks training processes")
	}
	ckptDir := t.TempDir()
	out, err := trainCmd(t, "-spawn", "-ranks", "2", "-algo", "1d",
		"-dataset", "reddit-sim", "-quick", "-epochs", "5",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1",
		"-checkpoint-keep", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	names, err := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("keep=2 left %d snapshots: %v", len(names), names)
	}
	path, err := checkpoint.Latest(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 5 {
		t.Errorf("latest surviving snapshot at epoch %d, want 5", snap.Epoch)
	}
}
