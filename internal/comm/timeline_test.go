package comm

import (
	"fmt"
	"testing"
	"time"
)

// one-rank schedule helper: run fn on a single-rank cluster and return its
// ledger.
func runSchedule(t *testing.T, fn func(*Comm)) *Ledger {
	t.Helper()
	c := runCluster(t, 1, func(cm *Comm) error {
		fn(cm)
		return nil
	})
	return c.Ledger(0)
}

// TestTimelineFullyHiddenSpan: an async span shorter than the compute
// issued before its Wait vanishes from the critical path entirely.
func TestTimelineFullyHiddenSpan(t *testing.T) {
	commCost := 5*testCost.Alpha + 1000*testCost.Beta
	l := runSchedule(t, func(c *Comm) {
		req := c.chargeAsync(CatDenseComm, 5, 1000)
		c.ChargeTime(CatSpMM, 10*commCost)
		req.Wait()
	})
	if got, want := l.Reading().Elapsed, 10*commCost; got != want {
		t.Fatalf("Elapsed = %v, want compute-only %v", got, want)
	}
	if got := l.Reading().Hidden; got != commCost {
		t.Fatalf("hidden = %v, want the whole span %v", got, commCost)
	}
	if got := l.Reading().Bulk; got != 11*commCost {
		t.Fatalf("bulk = %v, want the sum of the spans %v", got, 11*commCost)
	}
}

// TestTimelinePartiallyHiddenSpan: compute shorter than the span hides
// only its own length; the remainder is exposed.
func TestTimelinePartiallyHiddenSpan(t *testing.T) {
	commCost := 4*testCost.Alpha + 4096*testCost.Beta
	comp := commCost / 4
	l := runSchedule(t, func(c *Comm) {
		req := c.chargeAsync(CatDenseComm, 4, 4096)
		c.ChargeTime(CatSpMM, comp)
		req.Wait()
	})
	if got := l.Reading().Elapsed; got != commCost {
		t.Fatalf("Elapsed = %v, want comm-bound %v", got, commCost)
	}
	if got := l.Reading().Hidden; got != comp {
		t.Fatalf("hidden = %v, want the compute length %v", got, comp)
	}
}

// TestTimelineZeroDurationCompute: an immediate Wait exposes the whole
// span — async with nothing to hide behind degenerates to the synchronous
// charge.
func TestTimelineZeroDurationCompute(t *testing.T) {
	commCost := 2*testCost.Alpha + 512*testCost.Beta
	l := runSchedule(t, func(c *Comm) {
		c.ChargeTime(CatMisc, 0)
		req := c.chargeAsync(CatDenseComm, 2, 512)
		c.ChargeTime(CatSpMM, 0)
		req.Wait()
	})
	if got := l.Reading().Elapsed; got != commCost {
		t.Fatalf("Elapsed = %v, want %v", got, commCost)
	}
	if got := l.Reading().Hidden; got != 0 {
		t.Fatalf("hidden = %v, want 0", got)
	}
}

// TestTimelineTwoOverlappingSpans: two in-flight spans queue on the
// network link — the second starts when the first ends — while both
// overlap the same compute.
func TestTimelineTwoOverlappingSpans(t *testing.T) {
	c1 := 1*testCost.Alpha + 1000*testCost.Beta
	c2 := 3*testCost.Alpha + 2000*testCost.Beta
	comp := c1 / 2
	l := runSchedule(t, func(c *Comm) {
		r1 := c.chargeAsync(CatSparseComm, 1, 1000)
		r2 := c.chargeAsync(CatDenseComm, 3, 2000)
		c.ChargeTime(CatSpMM, comp)
		r1.Wait()
		r2.Wait()
	})
	// Critical path: the spans occupy [0, c1] and [c1, c1+c2]; compute
	// covers [0, comp] with comp < c1, so the clock lands on c1+c2.
	if got, want := l.Reading().Elapsed, c1+c2; got != want {
		t.Fatalf("Elapsed = %v, want queued spans %v", got, want)
	}
	if got := l.Reading().Hidden; got != comp {
		t.Fatalf("hidden = %v, want %v", got, comp)
	}
}

// TestTimelineNestedWaits: waiting requests out of issue order reaches the
// same critical path — each Wait clamps the clock to its own span end.
func TestTimelineNestedWaits(t *testing.T) {
	c1 := 2*testCost.Alpha + 100*testCost.Beta
	c2 := 1*testCost.Alpha + 900*testCost.Beta
	l := runSchedule(t, func(c *Comm) {
		r1 := c.chargeAsync(CatSparseComm, 2, 100)
		r2 := c.chargeAsync(CatDenseComm, 1, 900)
		r2.Wait() // out of order: r2's span ends at c1+c2
		r1.Wait() // already covered; no-op
	})
	if got, want := l.Reading().Elapsed, c1+c2; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
}

// TestTimelineSyncQueuesBehindAsync: a synchronous charge issued while an
// async span is in flight starts after it on the shared link — and even
// though it drags the clock past the async span's end, none of that span
// counts as hidden: the rank was blocked on the NIC, not computing.
func TestTimelineSyncQueuesBehindAsync(t *testing.T) {
	c1 := 1*testCost.Alpha + 500*testCost.Beta
	c2 := 1*testCost.Alpha + 700*testCost.Beta
	l := runSchedule(t, func(c *Comm) {
		req := c.chargeAsync(CatDenseComm, 1, 500)
		c.Charge(CatSparseComm, 1, 700) // queues behind the in-flight span
		req.Wait()
	})
	if got, want := l.Reading().Elapsed, c1+c2; got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
	if got := l.Reading().Hidden; got != 0 {
		t.Fatalf("hidden = %v, want 0: the clock advanced on transfers, not compute", got)
	}
}

// TestTimelineHiddenCappedByCompute: with both compute and a queued sync
// transfer between initiation and Wait, only the compute portion is
// credited as hidden.
func TestTimelineHiddenCappedByCompute(t *testing.T) {
	span := 1*testCost.Alpha + 1000*testCost.Beta
	comp := span / 10
	l := runSchedule(t, func(c *Comm) {
		req := c.chargeAsync(CatDenseComm, 1, 1000)
		c.ChargeTime(CatSpMM, comp)
		c.Charge(CatSparseComm, 1, 1000) // drags clock past the span's end
		req.Wait()
	})
	if got := l.Reading().Hidden; got != comp {
		t.Fatalf("hidden = %v, want only the compute %v", got, comp)
	}
}

// TestTimelineWaitIdempotent: waiting twice neither moves the clock nor
// double-counts hidden time.
func TestTimelineWaitIdempotent(t *testing.T) {
	l := runSchedule(t, func(c *Comm) {
		req := c.chargeAsync(CatDenseComm, 1, 100)
		c.ChargeTime(CatSpMM, 1)
		first := req.Wait()
		second := req.Wait()
		if len(first.Floats) != len(second.Floats) {
			panic("repeated Wait changed the result")
		}
	})
	if got := l.Reading().Elapsed; got != 1.0 {
		t.Fatalf("Elapsed = %v, want 1 (span fully hidden)", got)
	}
	want := 1*testCost.Alpha + 100*testCost.Beta
	if got := l.Reading().Hidden; got != want {
		t.Fatalf("hidden = %v, want %v (counted once)", got, want)
	}
}

// TestTimelineSyncElapsedEqualsTotal: with only synchronous charges the
// timeline clock is exactly the chronological sum of all spans.
func TestTimelineSyncElapsedEqualsTotal(t *testing.T) {
	l := runSchedule(t, func(c *Comm) {
		c.Charge(CatDenseComm, 3, 1000)
		c.ChargeTime(CatSpMM, 0.25)
		c.Charge(CatSparseComm, 1, 10)
		c.ChargeTime(CatMisc, 0.5)
	})
	want := 3*testCost.Alpha + 1000*testCost.Beta + 0.25 + 1*testCost.Alpha + 10*testCost.Beta + 0.5
	if got := l.Reading().Elapsed; got != want {
		t.Fatalf("Elapsed = %v, want chronological sum %v", got, want)
	}
	if l.Reading().Hidden != 0 {
		t.Fatal("synchronous schedule must hide nothing")
	}
}

// TestIBroadcastMatchesBroadcast: payloads, charges, and words of the
// non-blocking broadcast are identical to the blocking one; only the
// timeline placement differs.
func TestIBroadcastMatchesBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			syncC := runCluster(t, p, func(c *Comm) error {
				var in Payload
				if c.Rank() == 0 {
					in = Payload{Floats: []float64{1, 2, 3}, Ints: []int{9}}
				}
				out := c.World().Broadcast(0, in, CatDenseComm)
				if out.Floats[2] != 3 || out.Ints[0] != 9 {
					return fmt.Errorf("bad sync broadcast %v", out)
				}
				return nil
			})
			asyncC := runCluster(t, p, func(c *Comm) error {
				var in Payload
				if c.Rank() == 0 {
					in = Payload{Floats: []float64{1, 2, 3}, Ints: []int{9}}
				}
				req := c.World().IBroadcast(0, in, CatDenseComm)
				out := req.Wait()
				if out.Floats[2] != 3 || out.Ints[0] != 9 {
					return fmt.Errorf("bad async broadcast %v", out)
				}
				return nil
			})
			for r := 0; r < p; r++ {
				s, a := syncC.Ledger(r), asyncC.Ledger(r)
				if s.Reading().Words[CatDenseComm] != a.Reading().Words[CatDenseComm] ||
					s.Reading().Msgs[CatDenseComm] != a.Reading().Msgs[CatDenseComm] {
					t.Fatalf("rank %d: charges differ sync %+v async %+v", r, s, a)
				}
				if s.Reading().Elapsed != a.Reading().Elapsed {
					t.Fatalf("rank %d: immediate wait must match sync elapsed", r)
				}
			}
		})
	}
}

// TestIExchangeIndexedMatchesSync: same equivalence for the indexed
// exchange, with an asymmetric pattern.
func TestIExchangeIndexedMatchesSync(t *testing.T) {
	build := func(c *Comm) ([]Payload, []bool) {
		// Ring: rank r sends one row to r+1, receives from r-1.
		q := c.Size()
		parts := make([]Payload, q)
		from := make([]bool, q)
		parts[(c.Rank()+1)%q] = Payload{Floats: []float64{float64(c.Rank())}}
		from[(c.Rank()-1+q)%q] = true
		return parts, from
	}
	syncC := runCluster(t, 4, func(c *Comm) error {
		parts, from := build(c)
		out := c.World().ExchangeIndexed(parts, from, CatDenseComm)
		if out[(c.Rank()+3)%4].Floats[0] != float64((c.Rank()+3)%4) {
			return fmt.Errorf("bad sync exchange")
		}
		return nil
	})
	asyncC := runCluster(t, 4, func(c *Comm) error {
		parts, from := build(c)
		req := c.World().IExchangeIndexed(parts, from, CatDenseComm)
		c.ChargeTime(CatSpMM, 0.001)
		out := req.WaitAll()
		if out[(c.Rank()+3)%4].Floats[0] != float64((c.Rank()+3)%4) {
			return fmt.Errorf("bad async exchange")
		}
		return nil
	})
	for r := 0; r < 4; r++ {
		s, a := syncC.Ledger(r), asyncC.Ledger(r)
		if s.Reading().Words[CatDenseComm] != a.Reading().Words[CatDenseComm] {
			t.Fatalf("rank %d: words differ", r)
		}
		if a.Reading().Hidden <= 0 {
			t.Fatalf("rank %d: exchange span was not hidden behind compute", r)
		}
	}
}

// TestEpochDonePanicsOnUnwaitedRequest: dropping a request on the floor
// would silently lose its span, so the epoch boundary refuses.
func TestEpochDonePanicsOnUnwaitedRequest(t *testing.T) {
	runCluster(t, 1, func(c *Comm) error {
		c.chargeAsync(CatDenseComm, 1, 10)
		defer func() {
			if recover() == nil {
				panic("expected unwaited-request panic")
			}
		}()
		c.EpochDone()
		return nil
	})
}

// TestRequestPoolRecycles: after EpochDone, new requests reuse the arena
// (pointer identity) instead of allocating.
func TestRequestPoolRecycles(t *testing.T) {
	runCluster(t, 1, func(c *Comm) error {
		r1 := c.chargeAsync(CatDenseComm, 1, 10)
		r1.Wait()
		c.EpochDone()
		r2 := c.chargeAsync(CatDenseComm, 1, 10)
		r2.Wait()
		if r1 != r2 {
			return fmt.Errorf("request was not recycled")
		}
		c.EpochDone()
		return nil
	})
}

// TestConcurrentIBroadcastStress runs the 2D double-buffered prefetch
// pattern — two panel broadcasts in flight per group while compute
// proceeds — across a 4x4 grid for many rounds. Run with -race, it guards
// the I-collectives' concurrent fabric use; the payload checks guard
// cross-stage buffer mixups.
func TestConcurrentIBroadcastStress(t *testing.T) {
	const side = 4
	const p = side * side
	const rounds = 50
	c := NewCluster(p, testCost)
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(cm *Comm) error {
			pi, pj := cm.Rank()/side, cm.Rank()%side
			rowRanks := make([]int, side)
			colRanks := make([]int, side)
			for k := 0; k < side; k++ {
				rowRanks[k] = pi*side + k
				colRanks[k] = k*side + pj
			}
			row := cm.NewGroup(rowRanks)
			col := cm.NewGroup(colRanks)
			issue := func(r, k int) (*Request, *Request) {
				var rowIn, colIn Payload
				if k == pj {
					rowIn = Payload{Floats: []float64{float64(r*side + pi)}}
				}
				if k == pi {
					colIn = Payload{Floats: []float64{float64(r*side + pj)}}
				}
				return row.IBroadcast(k, rowIn, CatSparseComm),
					col.IBroadcast(k, colIn, CatDenseComm)
			}
			for r := 0; r < rounds; r++ {
				rowReq, colReq := issue(r, 0)
				for k := 0; k < side; k++ {
					got := rowReq.Wait()
					if got.Floats[0] != float64(r*side+pi) {
						return fmt.Errorf("round %d stage %d: row bcast corrupted: %v", r, k, got.Floats)
					}
					got = colReq.Wait()
					if got.Floats[0] != float64(r*side+pj) {
						return fmt.Errorf("round %d stage %d: col bcast corrupted: %v", r, k, got.Floats)
					}
					if k+1 < side {
						rowReq, colReq = issue(r, k+1)
					}
					cm.ChargeTime(CatSpMM, 1e-6)
				}
				cm.EpochDone()
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stress run deadlocked")
	}
}
