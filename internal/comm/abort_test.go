package comm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunAbortsPeers pins Cluster.Run's failure policy on both fabrics
// with one table: rank 0 panics while its three peers sit in Recv, in
// Barrier, or in EpochDone's barrier after their recycle. Every peer must
// wake with a *PeerError carrying rank 0's root cause, Run must return
// that first failure rather than one of the three it set off, and the
// aborted cluster must refuse another Run.
func TestRunAbortsPeers(t *testing.T) {
	const p = 4
	const cause = "rank 0: disk full"
	fabrics := []struct {
		name string
		mk   func(*testing.T) *Cluster
	}{
		{"chan", func(*testing.T) *Cluster { return NewCluster(p, testCost) }},
		{"tcp", func(t *testing.T) *Cluster { return tcpCluster(t, p) }},
	}
	// Each scenario is (what rank 0 does before failing, where its peers
	// wait for it).
	scenarios := []struct {
		name   string
		before func(*Comm)
		wait   func(*Comm)
	}{
		{"recv", func(*Comm) {}, func(c *Comm) { c.Recv(0) }},
		{"barrier", func(*Comm) {}, func(c *Comm) { c.Barrier() }},
		// The peers recycle, then block in EpochDone's one barrier.
		{"epochdone", func(*Comm) {}, func(c *Comm) { c.EpochDone() }},
	}
	for _, fab := range fabrics {
		for _, sc := range scenarios {
			t.Run(fab.name+"/"+sc.name, func(t *testing.T) {
				cl := fab.mk(t)
				var mu sync.Mutex
				woke := make(map[int]any)
				done := make(chan error, 1)
				go func() {
					done <- cl.Run(func(c *Comm) error {
						if c.Rank() == 0 {
							sc.before(c)
							time.Sleep(20 * time.Millisecond) // let the peers block
							panic("disk full")
						}
						defer func() {
							rec := recover()
							mu.Lock()
							woke[c.Rank()] = rec
							mu.Unlock()
							panic(rec) // a secondary failure, as Run sees it
						}()
						sc.wait(c)
						return nil
					})
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("peers of a failed rank never woke")
				}
				if err == nil || err.Error() != cause {
					t.Fatalf("Run returned %v, want the first failure %q", err, cause)
				}
				for r := 1; r < p; r++ {
					pe, ok := AsPeerError(woke[r])
					if !ok {
						t.Fatalf("rank %d woke with %v (%T), want *PeerError", r, woke[r], woke[r])
					}
					// Over TCP the abort may arrive relayed by a peer that
					// woke first; the cause it carries is rank 0's, verbatim.
					if !pe.Aborted || pe.Rank != r || pe.Reason != cause {
						t.Errorf("rank %d woke with %+v, want an abort carrying %q", r, *pe, cause)
					}
				}
				again := cl.Run(func(*Comm) error { return nil })
				if again == nil || !errors.Is(again, err) || !strings.Contains(again.Error(), "aborted") {
					t.Fatalf("aborted cluster ran again: %v", again)
				}
			})
		}
	}
}
