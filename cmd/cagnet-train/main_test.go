package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro"
)

// TestMain lets the test binary double as cagnet-train: re-executed with
// CAGNET_TRAIN_EXEC=1 it runs main() instead of the tests.
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

// modeledLine returns the "modeled time" line of a cagnet-train or
// cagnet-worker run.
func modeledLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "modeled time") {
			return line
		}
	}
	t.Fatalf("no modeled time line in:\n%s", out)
	return ""
}

// TestResumedRunPerEpochFigures: a run resumed from a checkpoint trains
// only the epochs after it, and its totals cover only those. So the run
// that resumes a 4-epoch checkpoint and trains to 8 says where it resumed
// and prints the modeled-time line of a fresh 4-epoch run, per-epoch
// figure included; the run that resumes the 8-epoch checkpoint has no
// per-epoch figure to print.
func TestResumedRunPerEpochFigures(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-quick", "-algo", "1d", "-ranks", "2", "-checkpoint-dir", dir}
	fresh := trainCLI(t, append(args, "-epochs", "4")...)
	resumed := trainCLI(t, append(args, "-epochs", "8")...)
	if !strings.Contains(resumed, "resumed from checkpoint at epoch 4\n") {
		t.Errorf("resumed run does not say where it resumed:\n%s", resumed)
	}
	if got, want := modeledLine(t, resumed), modeledLine(t, fresh); got != want {
		t.Errorf("resumed run prints %q, a fresh run of the same 4 epochs %q", got, want)
	}
	// Resumed at its final epoch, a run trains nothing: it says so instead
	// of dividing by zero epochs.
	atEnd := trainCLI(t, append(args, "-epochs", "8")...)
	if !strings.HasSuffix(modeledLine(t, atEnd), " s total, no epoch trained") {
		t.Errorf("run resumed at its end prints %q", modeledLine(t, atEnd))
	}
	if strings.Contains(atEnd, "Inf") || strings.Contains(atEnd, "NaN") {
		t.Errorf("run resumed at its end prints a non-finite figure:\n%s", atEnd)
	}
}

// TestValidateFlagsRejections pins the checks only the command line adds:
// each must error out before the dataset build and name the offending flag.
// TestRejectedBeforeDataset has the library's verdicts.
func TestValidateFlagsRejections(t *testing.T) {
	// The numeric flags have no usable zero — the library would read it as
	// "use the default" and train something other than what was asked — so
	// every row spells out all three.
	cases := map[string]flagCombo{
		"-epochs 0":            {epochs: 0, ranks: 4, lr: 0.01},
		"-epochs -2":           {epochs: -2, ranks: 4, lr: 0.01},
		"-ranks 0":             {epochs: 3, ranks: 0, lr: 0.01},
		"-ranks -2":            {epochs: 3, ranks: -2, lr: 0.01},
		"-lr 0":                {epochs: 3, ranks: 4, lr: 0},
		"-lr -2":               {epochs: 3, ranks: 4, lr: -2},
		"-workers -3":          {epochs: 3, ranks: 4, lr: 0.01, workers: -3},
		"-val 1":               {epochs: 3, ranks: 4, lr: 0.01, val: 1},
		"-val -0.5":            {epochs: 3, ranks: 4, lr: 0.01, val: -0.5},
		"-checkpoint-every -1": {epochs: 3, ranks: 4, lr: 0.01, ckptEvery: -1},
	}
	for name, combo := range cases {
		flagName := strings.Fields(name)[0]
		if err := validateFlags(combo); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), flagName+" ") {
			t.Errorf("%s: error %q does not name the flag", name, err)
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
		{"f32 with 1d", "precision", []string{"-algo", "1d", "-precision", "f32"}},
		{"f32 with 1.5d", "precision", []string{"-algo", "1.5d", "-precision", "f32"}},
		{"f32 with 2d", "precision", []string{"-algo", "2d", "-precision", "f32"}},
		{"f32 with 3d", "precision", []string{"-algo", "3d", "-ranks", "8", "-precision", "f32"}},
		{"tcp with serial", "tcp", []string{"-algo", "serial", "-transport", "tcp"}},
		{"unknown transport", "quic", []string{"-algo", "2d", "-transport", "quic"}},
		{"checkpoint-every without dir", "Dir", []string{"-algo", "1d", "-ranks", "2", "-checkpoint-every", "1"}},
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
	defaults := flagCombo{epochs: 10, ranks: 16, lr: 0.01}
	smallest := flagCombo{epochs: 1, ranks: 1, lr: 1e-9, val: 0.5, ckptEvery: 1, workers: 1}
	for name, combo := range map[string]flagCombo{"defaults": defaults, "one epoch on one rank at a tiny learning rate": smallest} {
		if err := validateFlags(combo); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	cases := map[string]cagnet.TrainOptions{
		"defaults":            {Algorithm: "2d"},
		"row options on 1d":   {Algorithm: "1d", HaloExchange: true, Partitioner: "ldg", Overlap: true},
		"row options on 1.5d": {Algorithm: "1.5d", HaloExchange: true, Overlap: true},
		"f32 on serial":       {Algorithm: "serial", Precision: "f32"},
		"f64 on serial":       {Algorithm: "serial", Precision: "f64"},
		"f64 on 1d":           {Algorithm: "1d", Precision: "f64"},
		"f64 on 2d":           {Algorithm: "2d", Precision: "f64"},
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

// TestKernelsLine pins the line that says which kernels ran.
func TestKernelsLine(t *testing.T) {
	got := kernelsLine(&cagnet.TrainReport{Precision: "f32", KernelISA: "avx2"})
	if want := "kernels: precision=f32 isa=avx2"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
