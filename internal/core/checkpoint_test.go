package core

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tolerance"
)

// resumeTrainers are the five trainers the resume properties run over, the
// serial one in both precisions: at f32 the engine's float32 weights and T¹
// are derived from the float64 state a snapshot carries, never part of it.
var resumeTrainers = map[string]func() Trainer{
	"serial":     func() Trainer { return NewSerial() },
	"serial-f32": func() Trainer { return &Serial{Kernel: KernelOptions{Precision: PrecisionF32}} },
	"1d":         func() Trainer { return NewOneD(4, testMach) },
	"1.5d":       func() Trainer { return NewOneFiveD(4, 2, testMach) },
	"2d":         func() Trainer { return NewTwoD(4, testMach) },
	"3d":         func() Trainer { return NewThreeD(8, testMach) },
}

// TestCheckpointResumeNoop: resuming a run whose checkpoint already
// covers every requested epoch trains zero further epochs but still
// reports the full history and produces the output. That output comes from
// a forward pass over T¹ = Aᵀ·H⁰, which no snapshot carries: with zero
// epochs left, the rebuild on resume is the only thing that can supply it.
func TestCheckpointResumeNoop(t *testing.T) {
	for name, mk := range resumeTrainers {
		t.Run(name, func(t *testing.T) {
			prob := testProblem(t, 40, 5, 4, 3, 4, 31)
			prob.Checkpoint = checkpoint.Options{Dir: t.TempDir()}
			want, err := mk().Train(prob)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mk().Train(prob) // resumes from the final snapshot
			if err != nil {
				t.Fatal(err)
			}
			if got.ResumedEpoch != prob.Config.Epochs {
				t.Fatalf("resumed at epoch %d, want %d (zero epochs left)", got.ResumedEpoch, prob.Config.Epochs)
			}
			requireSameRun(t, "resumed at the last epoch", got, want)
		})
	}
}

// TestCheckpointEveryInterval: Every=2 over 5 epochs writes snapshots at
// epochs 2 and 4 plus the final one at 5.
func TestCheckpointEveryInterval(t *testing.T) {
	prob := testProblem(t, 30, 5, 4, 3, 5, 41)
	dir := t.TempDir()
	prob.Checkpoint = checkpoint.Options{Dir: dir, Every: 2}
	if _, err := NewSerial().Train(prob); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range names {
		got = append(got, filepath.Base(n))
	}
	want := []string{"ckpt-00000002.ckpt", "ckpt-00000004.ckpt", "ckpt-00000005.ckpt"}
	if len(got) != len(want) {
		t.Fatalf("snapshots %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshots %v, want %v", got, want)
		}
	}
}

// TestCheckpointResumeRejectsMismatch: a snapshot from a different run
// configuration must be refused loudly, never silently retrained over.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	prob := testProblem(t, 30, 5, 4, 3, 3, 51)
	dir := t.TempDir()
	prob.Checkpoint = checkpoint.Options{Dir: dir}
	if _, err := NewSerial().Train(prob); err != nil {
		t.Fatal(err)
	}
	bad := prob
	bad.Config.Seed = prob.Config.Seed + 1
	if _, err := NewSerial().Train(bad); err == nil {
		t.Error("resume under a different seed accepted")
	}
	bad = prob
	bad.Config.Optimizer = "adam"
	if _, err := NewSerial().Train(bad); err == nil {
		t.Error("resume under a different optimizer accepted")
	}
	bad = prob
	bad.Config.Epochs = 2 // checkpoint is ahead of the requested run
	if _, err := NewSerial().Train(bad); err == nil {
		t.Error("resume past the requested epoch count accepted")
	}
}

// TestCheckpointCorruptLatestFailsLoudly: a torn or corrupted latest
// snapshot stops the run with an error instead of resuming from garbage.
func TestCheckpointCorruptLatestFailsLoudly(t *testing.T) {
	prob := testProblem(t, 30, 5, 4, 3, 3, 61)
	dir := t.TempDir()
	prob.Checkpoint = checkpoint.Options{Dir: dir}
	if _, err := NewSerial().Train(prob); err != nil {
		t.Fatal(err)
	}
	path, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSerial().Train(prob); err == nil {
		t.Fatal("training resumed from a corrupt checkpoint")
	}
}

// TestCheckpointResumeElasticWorld is the shrink-to-survivors resume
// property: a snapshot written at one world size restores into a trainer
// with a different world size — or even a different algorithm — because
// the persisted state (replicated weights plus optimizer state) is
// world-size independent. Repartitioning reassociates the floating-point
// sums, so the contract here is tolerance, not the bit identity the
// same-world resume guarantees.
func TestCheckpointResumeElasticWorld(t *testing.T) {
	for name, tc := range map[string]struct {
		first, second func() Trainer
	}{
		"1d 4 to 3": {
			func() Trainer { return NewOneD(4, testMach) },
			func() Trainer { return NewOneD(3, testMach) },
		},
		"2d 4 to 1d 3": {
			func() Trainer { return NewTwoD(4, testMach) },
			func() Trainer { return NewOneD(3, testMach) },
		},
		"1.5d 4 to serial": {
			func() Trainer { return NewOneFiveD(4, 2, testMach) },
			func() Trainer { return NewSerial() },
		},
	} {
		t.Run(name, func(t *testing.T) {
			prob := testProblem(t, 40, 6, 5, 4, 6, 21)
			prob.Config.Optimizer = "adam"

			clean, err := NewSerial().Train(prob)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			half := prob
			half.Config.Epochs = 3
			half.Checkpoint = checkpoint.Options{Dir: dir, Every: 1}
			if _, err := tc.first().Train(half); err != nil {
				t.Fatal(err)
			}

			full := prob
			full.Checkpoint = checkpoint.Options{Dir: dir, Every: 1}
			resumed, err := tc.second().Train(full)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.ResumedEpoch != 3 {
				t.Fatalf("ResumedEpoch = %d, want 3", resumed.ResumedEpoch)
			}
			tolerance.AssertCloseSlice(t, "losses", resumed.Losses, clean.Losses, 1e-9, 1e-9)
			tolerance.AssertClose(t, "output", resumed.Output, clean.Output, 1e-9, 1e-9)
			for l := range clean.Weights {
				tolerance.AssertClose(t, "weights", resumed.Weights[l], clean.Weights[l], 1e-9, 1e-9)
			}
		})
	}
}

// TestDrainStopsEarly: a drain vote at the epoch boundary ends the run
// after the current epoch with a final snapshot, and every trainer in the
// world stops at the same epoch even when only one rank voted.
func TestDrainStopsEarly(t *testing.T) {
	prob := testProblem(t, 30, 5, 4, 3, 8, 61)
	dir := t.TempDir()
	prob.Checkpoint = checkpoint.Options{Dir: dir}
	// The in-process world shares this closure across all four simulated
	// ranks (four calls per epoch boundary). Exactly the 9th call — one
	// rank, at the end of epoch 3 — votes to drain; the OR-reduce must
	// stop all ranks at that epoch anyway.
	var calls int64
	prob.Drain = func() bool {
		return atomic.AddInt64(&calls, 1) == 9
	}
	res, err := NewOneD(4, testMach).Train(prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainedEpoch != 3 {
		t.Fatalf("DrainedEpoch = %d, want 3", res.DrainedEpoch)
	}
	if len(res.Losses) != 3 {
		t.Fatalf("drained run recorded %d losses, want 3", len(res.Losses))
	}
	path, err := checkpoint.Latest(dir)
	if err != nil || path == "" {
		t.Fatalf("drain wrote no final checkpoint: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 3 {
		t.Fatalf("final snapshot at epoch %d, want 3", snap.Epoch)
	}

	// The drained run resumes where it left off and finishes bit-identical
	// to an uninterrupted run — drain plus resume never costs an epoch.
	clean := prob
	clean.Checkpoint = checkpoint.Options{}
	clean.Drain = nil
	want, err := NewOneD(4, testMach).Train(clean)
	if err != nil {
		t.Fatal(err)
	}
	rest := prob
	rest.Drain = nil
	got, err := NewOneD(4, testMach).Train(rest)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, "drained and resumed", got, want)
}
