package main

import (
	"net"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	cagnet "repro"
	"repro/internal/graph"
)

// reservePort grabs an ephemeral loopback port and releases it for the
// worker under test. The tiny reuse window is an accepted test trade-off.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestKillNineSurvivorsFailFast is the failure-detection acceptance test:
// kill -9 one rank mid-epoch and the survivor must exit nonzero with a
// typed error naming the dead rank — within the progress timeout, not
// after an indefinite hang.
func TestKillNineSurvivorsFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("forks training processes and waits out failure detection")
	}
	coordAddr := reservePort(t)
	ckptDir := t.TempDir()
	common := []string{
		"-world", "2", "-coordinator", coordAddr,
		"-algo", "1d", "-dataset", "reddit-sim", "-quick",
		"-epochs", "100000", // far more than ever completes; the kill ends the run
		"-heartbeat-interval", "100ms", "-progress-timeout", "10s",
	}
	rank0 := workerCmd(t, append([]string{"-rank", "0",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1"}, common...)...)
	var out strings.Builder
	rank0.Stdout, rank0.Stderr = &out, &out
	rank1 := workerCmd(t, append([]string{"-rank", "1", "-host=false"}, common...)...)
	if err := rank0.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { rank0.Process.Kill(); rank0.Wait() }()
	if err := rank1.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { rank1.Process.Kill(); rank1.Wait() }()

	// The first checkpoint appearing proves the mesh is up and epoch 1
	// finished — the kill below lands mid-training, not mid-rendezvous.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if names, _ := filepath.Glob(filepath.Join(ckptDir, "ckpt-*.ckpt")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared; worker output:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := rank1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	rank1.Wait()

	done := make(chan error, 1)
	go func() { done <- rank0.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("survivor exited zero after its peer was killed; output:\n%s", out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("survivor hung after the kill; output:\n%s", out.String())
	}
	if got := out.String(); !strings.Contains(got, "peer rank 1") {
		t.Errorf("survivor error does not name the dead rank:\n%s", got)
	}
}

// TestChaosRestartBitIdentical is the recovery acceptance test: a world
// of four whose chaos rank crashes after epoch 3 must be restarted by the
// supervisor from the latest checkpoint and finish with the digest of an
// uninterrupted in-process run.
func TestChaosRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("forks two generations of four training processes")
	}
	ckptDir := t.TempDir()
	out, err := workerCmd(t, "-spawn", "-world", "4", "-algo", "2d",
		"-dataset", "reddit-sim", "-quick", "-epochs", "6",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1",
		"-chaos", "crash@epoch=3").CombinedOutput()
	if err != nil {
		t.Fatalf("chaos spawn run failed: %v\n%s", err, out)
	}
	got := string(out)
	for _, want := range []string{
		"fault injection: crash at epoch 3 (rank 1)",
		"restarting from latest checkpoint",
		"final training accuracy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// Reference: the same problem trained in-process without faults.
	spec, err := graph.AnalogByName("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	report, err := cagnet.Train(spec.Quick().Build(), cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Losses) != 6 {
		t.Fatalf("reference trained %d epochs", len(report.Losses))
	}
	if line := "digest " + report.Digest(); !strings.Contains(got, line+"\n") {
		t.Errorf("output missing %q (the multi-process run diverged from the in-process one):\n%s", line, got)
	}
}

// TestSupervisorGivesUp: without a checkpoint directory there is nothing
// to restart from, and with -max-restarts exhausted the supervisor stops
// retrying — both must surface the original failure.
func TestSupervisorGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("forks training processes")
	}
	t.Run("no checkpoint dir", func(t *testing.T) {
		out, err := workerCmd(t, "-spawn", "-world", "2", "-algo", "1d",
			"-dataset", "reddit-sim", "-quick", "-epochs", "4",
			"-chaos", "crash@epoch=2").CombinedOutput()
		if err == nil {
			t.Fatalf("chaos run with no checkpoint dir exited zero:\n%s", out)
		}
		if !strings.Contains(string(out), "no -checkpoint-dir") {
			t.Errorf("error does not explain the missing checkpoint dir:\n%s", out)
		}
	})
	t.Run("restarts exhausted", func(t *testing.T) {
		// -max-restarts 0 makes the supervisor refuse the very first
		// retry, and -min-world 2 forbids the elastic fallback of
		// shrinking to one survivor — so the crash surfaces instead of
		// being recovered from.
		out, err := workerCmd(t, "-spawn", "-world", "2", "-algo", "1d",
			"-dataset", "reddit-sim", "-quick", "-epochs", "4",
			"-checkpoint-dir", t.TempDir(), "-max-restarts", "0",
			"-min-world", "2", "-chaos", "crash@epoch=2").CombinedOutput()
		if err == nil {
			t.Fatalf("run with exhausted restarts exited zero:\n%s", out)
		}
		if !strings.Contains(string(out), "giving up after 0 restarts") {
			t.Errorf("error does not report the restart budget:\n%s", out)
		}
	})
}

// TestChaosFlagValidation covers the fail-fast chaos flag rejections.
func TestChaosFlagValidation(t *testing.T) {
	base := config{world: 4, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}, coordinator: "x:1", chaosRank: 1}
	bad := base
	bad.chaos = "explode@op=1"
	if err := run(bad); err == nil {
		t.Error("unknown fault kind accepted")
	}
	bad = base
	bad.chaos = "crash@epoch=2"
	bad.chaosRank = 4
	if err := run(bad); err == nil {
		t.Error("chaos rank outside the world accepted")
	}
	bad = base
	bad.Checkpoint.Every = -1
	if err := run(bad); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
}
