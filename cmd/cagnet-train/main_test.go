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

// trainCLI runs this test binary as cagnet-train with args and returns
// its output.
func trainCLI(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CAGNET_TRAIN_EXEC=1")
	out, err := cmd.CombinedOutput()
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
// figure included.
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
}

// TestValidateFlagsRejections pins the fail-fast CLI validation: every
// flag combination the trainer cannot honor must error out before the
// dataset build instead of being silently dropped (or failing minutes
// later). One case per rejected combination.
func TestValidateFlagsRejections(t *testing.T) {
	cases := map[string]flagCombo{
		"halo with 2d":        {algo: "2d", halo: true},
		"halo with 3d":        {algo: "3d", halo: true},
		"halo with serial":    {algo: "serial", halo: true},
		"partitioner with 2d": {algo: "2d", partitioner: "ldg"},
		"overlap with serial": {algo: "serial", overlap: true},
		"f32 with 1d":         {algo: "1d", precision: "f32"},
		"f32 with 1.5d":       {algo: "1.5d", precision: "f32"},
		"f32 with 2d":         {algo: "2d", precision: "f32"},
		"f32 with 3d":         {algo: "3d", precision: "f32"},
		"tcp with serial":     {algo: "serial", transport: "tcp"},
		"unknown transport":   {algo: "2d", transport: "quic"},
		"negative workers":    {algo: "2d", workers: -3},
	}
	for name, combo := range cases {
		if err := validateFlags(withNumericDefaults(combo)); err == nil {
			t.Errorf("%s: combination accepted", name)
		}
	}
	// The numeric flags have no usable zero — the library would read it as
	// "use the default" and train something other than what was asked — so
	// these rows spell out all three and must name the offending flag.
	numeric := map[string]flagCombo{
		"-epochs 0":  {algo: "2d", epochs: 0, ranks: 4, lr: 0.01},
		"-epochs -2": {algo: "2d", epochs: -2, ranks: 4, lr: 0.01},
		"-ranks 0":   {algo: "2d", epochs: 3, ranks: 0, lr: 0.01},
		"-ranks -2":  {algo: "2d", epochs: 3, ranks: -2, lr: 0.01},
		"-lr 0":      {algo: "2d", epochs: 3, ranks: 4, lr: 0},
		"-lr -2":     {algo: "2d", epochs: 3, ranks: 4, lr: -2},
	}
	for name, combo := range numeric {
		flagName := strings.Fields(name)[0]
		if err := validateFlags(combo); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), flagName+" ") {
			t.Errorf("%s: error %q does not name the flag", name, err)
		}
	}
}

// withNumericDefaults fills -epochs, -ranks and -lr with the flag defaults,
// for cases about the other flags.
func withNumericDefaults(f flagCombo) flagCombo {
	f.epochs, f.ranks, f.lr = 10, 16, 0.01
	return f
}

// TestValidateFlagsAccepts covers the combinations that must keep working.
func TestValidateFlagsAccepts(t *testing.T) {
	cases := map[string]flagCombo{
		"defaults":            {algo: "2d"},
		"row options on 1d":   {algo: "1d", halo: true, partitioner: "ldg", overlap: true},
		"row options on 1.5d": {algo: "1.5d", halo: true, overlap: true},
		"f32 on serial":       {algo: "serial", precision: "f32"},
		"f64 on serial":       {algo: "serial", precision: "f64"},
		"f64 on 1d":           {algo: "1d", precision: "f64"},
		"f64 on 2d":           {algo: "2d", precision: "f64"},
		"tcp on 2d":           {algo: "2d", transport: "tcp"},
		"inproc explicit":     {algo: "3d", transport: "inproc"},
	}
	for name, combo := range cases {
		if err := validateFlags(withNumericDefaults(combo)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	smallest := flagCombo{algo: "serial", epochs: 1, ranks: 1, lr: 1e-9}
	if err := validateFlags(smallest); err != nil {
		t.Errorf("one epoch on one rank at a tiny learning rate: rejected: %v", err)
	}
}

// TestKernelsLine pins the line that says which kernels ran.
func TestKernelsLine(t *testing.T) {
	got := kernelsLine(&cagnet.TrainReport{Precision: "f32", KernelISA: "avx2"})
	if want := "kernels: precision=f32 isa=avx2"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
