package cagnet

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTrainRankFailureReturns pins the one failure policy from the public
// API: rank 0 cannot write its first checkpoint (the directory lies below a
// regular file), which is a panic inside one rank while its peers head
// into the next epoch's collectives. On either fabric Train must return —
// not hang on the blocked peers, not take the process down — with an error
// that names rank 0 and the path in the way, and leave no rank goroutine
// behind.
func TestTrainRankFailureReturns(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 11)
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "ckpt")
	for _, algo := range []string{"1d", "2d"} {
		for _, transport := range Transports {
			t.Run(algo+"/"+transport, func(t *testing.T) {
				before := runtime.NumGoroutine()
				done := make(chan error, 1)
				go func() {
					_, err := Train(ds, TrainOptions{
						Algorithm: algo, Ranks: 4, Epochs: 3, Transport: transport,
						Checkpoint: CheckpointOptions{Dir: dir, Every: 1},
					})
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("Train hung on the peers of a failed rank")
				}
				if err == nil || !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), file) {
					t.Fatalf("Train returned %v, want an error naming rank 0 and %s", err, file)
				}
				// Rank goroutines, socket readers and heartbeats all exit.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if now := runtime.NumGoroutine(); now > before {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before Train, %d left after it failed:\n%s", before, now, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}
