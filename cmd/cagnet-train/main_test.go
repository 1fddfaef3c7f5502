package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
	"repro/internal/graph"
)

// TestMain lets the test binary double as cagnet-train: re-executed with
// CAGNET_TRAIN_EXEC=1 it runs main() instead of the tests, so the -spawn
// tests exercise real separate processes without a prebuilt binary.
func TestMain(m *testing.M) {
	if os.Getenv("CAGNET_TRAIN_EXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trainCmd builds a re-exec of this test binary acting as cagnet-train.
func trainCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CAGNET_TRAIN_EXEC=1")
	return cmd
}

// trainCLI runs this test binary as cagnet-train with args and returns
// its output.
func trainCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := trainCmd(t, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("cagnet-train %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// outputLine returns the first line of a cagnet-train run that starts with
// prefix.
func outputLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

// TestResumedRunPerEpochFigures: a run resumed from a checkpoint trains
// only the epochs after it, and its totals cover only those. So the run
// that resumes a 4-epoch checkpoint and trains to 8 says where it resumed
// and prints the modeled-time line of a fresh 4-epoch run, per-epoch
// figure included; the run that resumes the 8-epoch checkpoint has no
// per-epoch figure to print. Both print the digest of an uninterrupted
// 8-epoch run — in one process and as a world of processes alike.
func TestResumedRunPerEpochFigures(t *testing.T) {
	want := outputLine(t, trainCLI(t, "-quick", "-algo", "1d", "-ranks", "2", "-epochs", "8"), "digest ")
	for _, tc := range []struct {
		name     string
		args     []string
		prefixes []string // the lines with a per-epoch figure
	}{
		{"in-process", []string{"-ranks", "2"}, []string{"modeled time"}},
		{"spawn", []string{"-spawn", "-ranks", "2"}, []string{"modeled time", "measured wall time"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "spawn" && testing.Short() {
				t.Skip("forks three worlds of training processes")
			}
			args := append([]string{"-quick", "-algo", "1d", "-checkpoint-dir", t.TempDir()}, tc.args...)
			fresh := trainCLI(t, append(args, "-epochs", "4")...)
			resumed := trainCLI(t, append(args, "-epochs", "8")...)
			if !strings.Contains(resumed, "resumed from checkpoint at epoch 4\n") {
				t.Errorf("resumed run does not say where it resumed:\n%s", resumed)
			}
			if got, want := outputLine(t, resumed, "modeled time"), outputLine(t, fresh, "modeled time"); got != want {
				t.Errorf("resumed run prints %q, a fresh run of the same 4 epochs %q", got, want)
			}
			// Resumed at its final epoch, a run trains nothing: it says so
			// instead of dividing by zero epochs.
			atEnd := trainCLI(t, append(args, "-epochs", "8")...)
			for _, prefix := range tc.prefixes {
				if line := outputLine(t, atEnd, prefix); !strings.HasSuffix(line, " s total, no epoch trained") {
					t.Errorf("run resumed at its end prints %q", line)
				}
			}
			if strings.Contains(atEnd, "Inf") || strings.Contains(atEnd, "NaN") {
				t.Errorf("run resumed at its end prints a non-finite figure:\n%s", atEnd)
			}
			for name, out := range map[string]string{"resumed at epoch 4": resumed, "resumed at its end": atEnd} {
				if got := outputLine(t, out, "digest "); got != want {
					t.Errorf("run %s prints %q, an uninterrupted run %q", name, got, want)
				}
			}
		})
	}
}

// validConfig is a command line every check accepts: one rank of a
// four-rank 2d world.
func validConfig() config {
	return config{
		TrainOptions: cagnet.TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 3, LR: 0.01},
		rank:         0, coordinator: "x:1", host: true, chaosRank: 1, minWorld: 1,
	}
}

// TestValidateFlagsRejections pins the checks only the command line adds:
// each must error out before the dataset build and name the offending flag.
// TestRejectedBeforeDataset has the library's verdicts.
func TestValidateFlagsRejections(t *testing.T) {
	// The numeric flags have no usable zero — the library would read it as
	// "use the default" and train something other than what was asked.
	cases := map[string]func(*config){
		"-epochs 0":            func(c *config) { c.Epochs = 0 },
		"-epochs -2":           func(c *config) { c.Epochs = -2 },
		"-ranks 0":             func(c *config) { c.Ranks = 0 },
		"-ranks -2":            func(c *config) { c.Ranks = -2 },
		"-lr 0":                func(c *config) { c.LR = 0 },
		"-lr -2":               func(c *config) { c.LR = -2 },
		"-workers -3":          func(c *config) { c.workers = -3 },
		"-val 1":               func(c *config) { c.val = 1 },
		"-val -0.5":            func(c *config) { c.val = -0.5 },
		"-checkpoint-every -1": func(c *config) { c.Checkpoint.Every = -1 },
		"-checkpoint-keep -1":  func(c *config) { c.Checkpoint.Keep = -1 },
	}
	for name, mod := range cases {
		for _, mode := range []string{"in-process", "rank"} {
			cfg := validConfig()
			if mode == "in-process" {
				cfg.rank, cfg.coordinator = -1, ""
			}
			mod(&cfg)
			flagName := strings.Fields(name)[0]
			if err := cfg.validate(); err == nil {
				t.Errorf("%s (%s): accepted", name, mode)
			} else if !strings.Contains(err.Error(), flagName+" ") {
				t.Errorf("%s (%s): error %q does not name the flag", name, mode, err)
			}
		}
	}
}

// TestRejectedBeforeDataset: a flag combination the library rejects ends
// the run before the dataset is built — exit status 1, an error naming the
// option, and no dataset line — rather than being silently dropped or
// failing after the build.
func TestRejectedBeforeDataset(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"halo with 2d", "halo", []string{"-algo", "2d", "-halo"}},
		{"halo with 3d", "halo", []string{"-algo", "3d", "-ranks", "8", "-halo"}},
		{"halo with serial", "halo", []string{"-algo", "serial", "-halo"}},
		{"partitioner with 2d", "partitioner", []string{"-algo", "2d", "-partitioner", "ldg"}},
		{"overlap with serial", "overlap", []string{"-algo", "serial", "-overlap"}},
		{"tcp with serial", "tcp", []string{"-algo", "serial", "-transport", "tcp"}},
		{"unknown transport", "quic", []string{"-algo", "2d", "-transport", "quic"}},
		{"checkpoint-every without dir", "Dir", []string{"-algo", "1d", "-ranks", "2", "-checkpoint-every", "1"}},
		{"chaos in one process", "-chaos applies", []string{"-algo", "1d", "-ranks", "2", "-chaos", "crash@epoch=1"}},
		{"host in one process", "-host applies", []string{"-algo", "1d", "-ranks", "2", "-host=false"}},
		{"min-world without spawn", "-min-world applies", []string{"-algo", "1d", "-ranks", "2", "-rank", "0", "-coordinator", "127.0.0.1:0", "-min-world", "2"}},
	} {
		cmd := trainCmd(t, append([]string{"-quick", "-epochs", "1"}, tc.args...)...)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("%s: exit status %d (%v), want 1:\n%s", tc.name, code, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output does not name %q:\n%s", tc.name, tc.want, out)
		}
		if strings.Contains(string(out), "dataset ") {
			t.Errorf("%s: the dataset was built before the rejection:\n%s", tc.name, out)
		}
	}
}

// TestValidateFlagsAccepts covers the combinations that must keep working:
// the command line's checks and the library's verdict on the options the
// flags become (TrainOptions.Validate, which the CLI calls next).
func TestValidateFlagsAccepts(t *testing.T) {
	defaults := config{TrainOptions: cagnet.TrainOptions{Epochs: 10, Ranks: 16, LR: 0.01}, rank: -1}
	smallest := config{TrainOptions: cagnet.TrainOptions{Epochs: 1, Ranks: 1, LR: 1e-9, Checkpoint: cagnet.CheckpointOptions{Every: 1}}, val: 0.5, workers: 1, rank: -1}
	negotiated := validConfig()
	negotiated.Ranks, negotiated.host = 0, false
	for name, cfg := range map[string]config{
		"defaults": defaults, "one epoch on one rank at a tiny learning rate": smallest,
		"one rank of a world": validConfig(), "a rank adopting the coordinator's world": negotiated,
	} {
		if err := cfg.validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	cases := map[string]cagnet.TrainOptions{
		"defaults":            {Algorithm: "2d"},
		"row options on 1d":   {Algorithm: "1d", HaloExchange: true, Partitioner: "ldg", Overlap: true},
		"row options on 1.5d": {Algorithm: "1.5d", HaloExchange: true, Overlap: true},
		"tcp on 2d":           {Algorithm: "2d", Transport: "tcp"},
		"inproc explicit":     {Algorithm: "3d", Ranks: 8, Transport: "inproc"},
	}
	for name, opts := range cases {
		if opts.Ranks == 0 {
			opts.Ranks = 16
		}
		if err := opts.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestKernelsLine pins the line that says which kernels ran, for each
// instruction set a report may name.
func TestKernelsLine(t *testing.T) {
	for _, isa := range []string{"avx512", "avx2", "go"} {
		got := kernelsLine(&cagnet.TrainReport{KernelISA: isa})
		if want := "kernels: precision=f64 isa=" + isa; got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

// TestSpawnSmoke is the multi-process acceptance smoke: -spawn forks four
// real rank processes that rendezvous over TCP, and the digest they print
// must be the in-process simulator's on the same dataset, seed, and epoch
// count.
func TestSpawnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("forks four training processes (~seconds)")
	}
	got := trainCLI(t, "-spawn", "-ranks", "4", "-algo", "2d",
		"-dataset", "reddit-sim", "-quick", "-epochs", "2")
	for _, want := range []string{"world 4 ranks over tcp", "measured wall time (tcp, max across ranks)", "modeled time", "wire fit"} {
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

// TestSpawnForwardsTrainingFlags: every training flag that was set reaches
// the forked ranks — the sparsity-aware 1D under an LDG partition with a
// validation split trains, as four processes, the in-process run's model
// and prints its per-epoch accuracies.
func TestSpawnForwardsTrainingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("forks four training processes")
	}
	args := []string{"-algo", "1d", "-halo", "-partitioner", "ldg", "-val", "0.2", "-quick", "-epochs", "2", "-ranks", "4"}
	want := trainCLI(t, args...)
	got := trainCLI(t, append([]string{"-spawn"}, args...)...)
	for _, prefix := range []string{"digest ", "epoch   2 ", "final training accuracy"} {
		if g, w := outputLine(t, got, prefix), outputLine(t, want, prefix); g != w {
			t.Errorf("-spawn prints %q, the in-process run %q", g, w)
		}
	}
}

// TestRejectedBeforeFork: an option set the library or the command line
// rejects is the supervisor's verdict, not a crash of its ranks — exit
// status 1 with an error naming the option, before any rank is forked (so
// no rank ever adopts a world size) or any dataset built, and never a world
// shrunk around its own misconfiguration.
func TestRejectedBeforeFork(t *testing.T) {
	spawn := []string{"-spawn", "-dataset", "reddit-sim", "-quick", "-epochs", "2"}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"2d at 5 ranks", "perfect-square", append(spawn, "-ranks", "5", "-algo", "2d", "-checkpoint-dir", t.TempDir())},
		{"2d at 5 ranks without a checkpoint dir", "perfect-square", append(spawn, "-ranks", "5", "-algo", "2d")},
		{"checkpoint-every without dir", "Dir", append(spawn, "-ranks", "2", "-algo", "1d", "-checkpoint-every", "1")},
		{"checkpoint-keep without dir", "Dir", append(spawn, "-ranks", "2", "-algo", "1d", "-checkpoint-keep", "2")},
		{"unknown optimizer", "adagrad", append(spawn, "-ranks", "2", "-algo", "1d", "-optimizer", "adagrad")},
		{"spawn over inproc", "-transport inproc", append(spawn, "-ranks", "2", "-algo", "1d", "-transport", "inproc")},
		{"spawn over tcp", "-transport tcp", append(spawn, "-ranks", "2", "-algo", "1d", "-transport", "tcp")},
		{"spawn serial", "serial", append(spawn, "-ranks", "2", "-algo", "serial")},
		{"rank without coordinator", "coordinator", []string{"-rank", "0", "-ranks", "2", "-algo", "1d", "-quick"}},
	} {
		cmd := trainCmd(t, tc.args...)
		cmd.Env = append(cmd.Env, "CAGNET_COORDINATOR=")
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("%s: exit status %d (%v), want 1:\n%s", tc.name, code, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output does not name %q:\n%s", tc.name, tc.want, out)
		}
		if strings.Contains(string(out), "adopted world size") || strings.Contains(string(out), "dataset ") {
			t.Errorf("%s: ranks were forked or the dataset built before the rejection:\n%s", tc.name, out)
		}
	}
}

// TestEnvFallback drives rank/world/coordinator purely through the
// CAGNET_* environment, the mpirun-style launch path.
func TestEnvFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training process")
	}
	cmd := trainCmd(t, "-algo", "1d", "-dataset", "reddit-sim", "-quick", "-epochs", "1")
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

// TestRunValidation covers the fail-fast rejections of one rank's command
// line, no sockets involved: each changes one thing about a command line
// validate accepts.
func TestRunValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mod  func(*config)
		want string
	}{
		"no world":             {func(c *config) { c.Ranks = 0 }, "-ranks"},
		"no world no coord":    {func(c *config) { c.Ranks, c.coordinator = 0, "" }, "-ranks"},
		"negotiate no rank":    {func(c *config) { c.Ranks, c.rank, c.host = 0, -1, false }, "-ranks"},
		"serial":               {func(c *config) { c.Algorithm = "serial" }, "serial"},
		"rank high":            {func(c *config) { c.rank = 4 }, "-rank 4"},
		"rank negative":        {func(c *config) { c.rank = -1 }, "-rank -1"},
		"no coordinator":       {func(c *config) { c.coordinator = "" }, "coordinator"},
		"spawn min-world high": {func(c *config) { c.spawn, c.minWorld = true, 5 }, "-min-world"},
		"negative keep":        {func(c *config) { c.Checkpoint.Keep = -1 }, "-checkpoint-keep"},
	} {
		cfg := validConfig()
		tc.mod(&cfg)
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", name, err, tc.want)
		}
	}
}
