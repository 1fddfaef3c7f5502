package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	cagnet "repro"
	"repro/internal/graph"
)

// TestMain lets the test binary double as the worker binary: when
// re-executed with CAGNET_WORKER_EXEC=1 it runs main() instead of the
// tests, so the -spawn smoke below exercises real separate processes
// without needing a prebuilt cagnet-worker on PATH.
func TestMain(m *testing.M) {
	if os.Getenv("CAGNET_WORKER_EXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerCmd builds a re-exec of this test binary acting as cagnet-worker.
func workerCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CAGNET_WORKER_EXEC=1")
	return cmd
}

// TestSpawnSmoke is the multi-process acceptance smoke: -spawn forks four
// real worker processes whose ranks rendezvous over TCP, and the digest
// they print must be the in-process simulator's on the same dataset, seed,
// and epoch count.
func TestSpawnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("forks four training processes (~seconds)")
	}
	out, err := workerCmd(t, "-spawn", "-world", "4", "-algo", "2d",
		"-dataset", "reddit-sim", "-quick", "-epochs", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("spawn run failed: %v\n%s", err, out)
	}
	got := string(out)
	for _, want := range []string{"world 4 ranks over tcp", "measured wall time:", "modeled time", "wire fit"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// The run must end with the in-process fabric's model, bit for bit: the
	// digest line checks that the library's contract survives process
	// boundaries.
	spec, err := graph.AnalogByName("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	report, err := cagnet.Train(spec.Quick().Build(), cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if line := "digest " + report.Digest(); !strings.Contains(got, line+"\n") {
		t.Errorf("output missing %q (the multi-process run diverged from the in-process one):\n%s", line, got)
	}
}

// TestRejectedBeforeFork: an option set the library rejects is the
// supervisor's verdict, not a crash of its ranks — exit status 1 with an
// error naming the option, before any rank is forked (so no rank ever
// adopts a world size), and never a world shrunk around its own
// misconfiguration.
func TestRejectedBeforeFork(t *testing.T) {
	spawn := []string{"-spawn", "-dataset", "reddit-sim", "-quick", "-epochs", "2"}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"2d at 5 ranks", "perfect-square", []string{"-world", "5", "-algo", "2d", "-checkpoint-dir", t.TempDir()}},
		{"2d at 5 ranks without a checkpoint dir", "perfect-square", []string{"-world", "5", "-algo", "2d"}},
		{"checkpoint-every without dir", "Dir", []string{"-world", "2", "-algo", "1d", "-checkpoint-every", "1"}},
		{"checkpoint-keep without dir", "Dir", []string{"-world", "2", "-algo", "1d", "-checkpoint-keep", "2"}},
		{"unknown optimizer", "adagrad", []string{"-world", "2", "-algo", "1d", "-optimizer", "adagrad"}},
	} {
		cmd := workerCmd(t, append(spawn, tc.args...)...)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("%s: exit status %d (%v), want 1:\n%s", tc.name, code, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output does not name %q:\n%s", tc.name, tc.want, out)
		}
		if strings.Contains(string(out), "adopted world size") {
			t.Errorf("%s: ranks were forked before the rejection:\n%s", tc.name, out)
		}
	}
}

// TestEnvFallback drives rank/world/coordinator purely through the
// CAGNET_* environment, the mpirun-style launch path.
func TestEnvFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training process")
	}
	cmd := workerCmd(t, "-algo", "1d", "-dataset", "reddit-sim", "-quick", "-epochs", "1")
	cmd.Env = append(cmd.Env,
		"CAGNET_RANK=0", "CAGNET_WORLD=1", "CAGNET_COORDINATOR=127.0.0.1:0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("env-configured run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "world 1 ranks over tcp") {
		t.Errorf("output missing world line:\n%s", out)
	}
}

// TestRunValidation covers the fail-fast rejections, no sockets involved.
func TestRunValidation(t *testing.T) {
	for name, cfg := range map[string]config{
		"no world":             {world: 0, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}, coordinator: "x:1", host: true},
		"no world no coord":    {world: 0, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}},
		"negotiate no rank":    {world: 0, rank: -1, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}, coordinator: "x:1"},
		"serial":               {world: 1, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "serial"}, coordinator: "x:1"},
		"rank high":            {world: 2, rank: 2, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}, coordinator: "x:1"},
		"rank negative":        {world: 2, rank: -1, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}, coordinator: "x:1"},
		"no coordinator":       {world: 2, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "2d"}},
		"spawn min-world high": {world: 2, TrainOptions: cagnet.TrainOptions{Algorithm: "1d"}, spawn: true, minWorld: 3},
		"negative keep":        {world: 2, rank: 0, TrainOptions: cagnet.TrainOptions{Algorithm: "2d", Checkpoint: cagnet.CheckpointOptions{Keep: -1}}, coordinator: "x:1"},
	} {
		if err := run(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}
