package comm

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testCost gives round numbers for charge assertions.
var testCost = CostParams{Alpha: 1e-6, Beta: 1e-9}

// runCluster runs fn on p channel-fabric ranks with a deadlock watchdog.
func runCluster(t *testing.T, p int, fn func(*Comm) error) *Cluster {
	t.Helper()
	return runOn(t, NewCluster(p, testCost), fn)
}

// runOn runs fn on every rank c hosts, with a deadlock watchdog.
func runOn(t *testing.T, c *Cluster, fn func(*Comm) error) *Cluster {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Run(fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cluster run failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster run deadlocked")
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	NewCluster(0, testCost)
}

func TestSendRecvPointToPoint(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, Payload{Floats: []float64{1, 2, 3}, Ints: []int{7}}, CatDenseComm)
			return nil
		}
		p := c.Recv(0)
		if len(p.Floats) != 3 || p.Floats[2] != 3 || len(p.Ints) != 1 || p.Ints[0] != 7 {
			return fmt.Errorf("bad payload %v", p)
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{1, 2}
			c.Send(1, Payload{Floats: data}, CatDenseComm)
			data[0] = 99 // must not be visible to the receiver
			c.Barrier()
			return nil
		}
		p := c.Recv(0)
		c.Barrier()
		if p.Floats[0] != 1 {
			return fmt.Errorf("payload aliased sender buffer: %v", p.Floats)
		}
		return nil
	})
}

func TestExchange(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		mine := []float64{float64(c.Rank())}
		got := c.Exchange(1-c.Rank(), Payload{Floats: mine}, CatDenseComm)
		if got.Floats[0] != float64(1-c.Rank()) {
			return fmt.Errorf("rank %d exchange got %v", c.Rank(), got.Floats)
		}
		return nil
	})
}

func TestBarrierOrdering(t *testing.T) {
	var before, after int64
	runCluster(t, 8, func(c *Comm) error {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		if atomic.LoadInt64(&before) != 8 {
			return fmt.Errorf("barrier released before all ranks arrived")
		}
		atomic.AddInt64(&after, 1)
		c.Barrier()
		if atomic.LoadInt64(&after) != 8 {
			return fmt.Errorf("second barrier released early")
		}
		return nil
	})
}

func TestBroadcastAllSizes(t *testing.T) {
	for p := 1; p <= 17; p++ {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			for root := 0; root < p; root += max(1, p/3) {
				root := root
				runCluster(t, p, func(c *Comm) error {
					g := c.World()
					var in Payload
					if g.Rank() == root {
						in = Payload{Floats: []float64{3.14, float64(root)}, Ints: []int{root}}
					}
					out := g.Broadcast(root, in, CatDenseComm)
					if len(out.Floats) != 2 || out.Floats[0] != 3.14 || out.Floats[1] != float64(root) {
						return fmt.Errorf("rank %d: bad broadcast %v", c.Rank(), out)
					}
					if len(out.Ints) != 1 || out.Ints[0] != root {
						return fmt.Errorf("rank %d: bad ints %v", c.Rank(), out.Ints)
					}
					return nil
				})
			}
		})
	}
}

func TestReduceAllSizes(t *testing.T) {
	for p := 1; p <= 12; p++ {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runCluster(t, p, func(c *Comm) error {
				g := c.World()
				x := []float64{float64(c.Rank()), 1}
				out := g.Reduce(0, x, CatDenseComm)
				if g.Rank() == 0 {
					wantSum := float64(p*(p-1)) / 2
					if out[0] != wantSum || out[1] != float64(p) {
						return fmt.Errorf("reduce got %v, want [%v %v]", out, wantSum, p)
					}
				} else if out != nil {
					return fmt.Errorf("non-root got non-nil reduce result")
				}
				return nil
			})
		})
	}
}

// TestReduceScatterLengthMismatch: ReduceScatter runs Reduce's tree, so a
// member whose data disagrees in length fails the run instead of summing a
// prefix.
func TestReduceScatterLengthMismatch(t *testing.T) {
	err := NewCluster(2, testCost).Run(func(c *Comm) error {
		counts := []int{1, 1 + c.Rank()}
		c.World().ReduceScatter(make([]float64, 2+c.Rank()), counts, CatDenseComm)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "reduce length mismatch") {
		t.Fatalf("mismatched ReduceScatter: err = %v, want a reduce length mismatch", err)
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	runCluster(t, 7, func(c *Comm) error {
		g := c.World()
		out := g.Reduce(3, []float64{1}, CatDenseComm)
		if g.Rank() == 3 && out[0] != 7 {
			return fmt.Errorf("reduce at root 3 = %v, want 7", out)
		}
		return nil
	})
}

func TestAllReduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runCluster(t, p, func(c *Comm) error {
				g := c.World()
				out := g.AllReduce([]float64{1, float64(c.Rank())}, CatDenseComm)
				wantSum := float64(p*(p-1)) / 2
				if out[0] != float64(p) || out[1] != wantSum {
					return fmt.Errorf("rank %d: allreduce %v", c.Rank(), out)
				}
				return nil
			})
		})
	}
}

func TestReduceScatter(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 9} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runCluster(t, p, func(c *Comm) error {
				g := c.World()
				// Each member contributes [0, 1, ..., 2p-1] scaled by
				// (rank+1); uneven counts exercise the offsets.
				counts := make([]int, p)
				total := 0
				for i := range counts {
					counts[i] = i + 1
					total += i + 1
				}
				x := make([]float64, total)
				for i := range x {
					x[i] = float64(i) * float64(c.Rank()+1)
				}
				out := g.ReduceScatter(x, counts, CatDenseComm)
				if len(out) != counts[g.Rank()] {
					return fmt.Errorf("rank %d: got %d values, want %d", c.Rank(), len(out), counts[g.Rank()])
				}
				// Sum over ranks of (i * (r+1)) = i * p(p+1)/2.
				scale := float64(p*(p+1)) / 2
				off := 0
				for i := 0; i < g.Rank(); i++ {
					off += counts[i]
				}
				for j, v := range out {
					want := float64(off+j) * scale
					if math.Abs(v-want) > 1e-9 {
						return fmt.Errorf("rank %d out[%d] = %v, want %v", c.Rank(), j, v, want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runCluster(t, p, func(c *Comm) error {
				g := c.World()
				out := g.AllGather(Payload{Floats: []float64{float64(c.Rank() * 10)}}, CatDenseComm)
				if len(out) != p {
					return fmt.Errorf("allgather returned %d parts", len(out))
				}
				for i, part := range out {
					if len(part.Floats) != 1 || part.Floats[0] != float64(i*10) {
						return fmt.Errorf("rank %d: part %d = %v", c.Rank(), i, part.Floats)
					}
				}
				return nil
			})
		})
	}
}

func TestGather(t *testing.T) {
	runCluster(t, 5, func(c *Comm) error {
		g := c.World()
		parts := g.Gather(2, Payload{Ints: []int{c.Rank()}}, CatDenseComm)
		if g.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root gather returned parts")
			}
			return nil
		}
		for i, part := range parts {
			if part.Ints[0] != i {
				return fmt.Errorf("gather part %d = %v", i, part.Ints)
			}
		}
		return nil
	})
}

func TestAllToAll(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			runCluster(t, p, func(c *Comm) error {
				g := c.World()
				parts := make([]Payload, p)
				for i := range parts {
					parts[i] = Payload{Floats: []float64{float64(c.Rank()*100 + i)}}
				}
				out := g.AllToAll(parts, CatDenseComm)
				for i, part := range out {
					want := float64(i*100 + c.Rank())
					if part.Floats[0] != want {
						return fmt.Errorf("rank %d from %d: got %v want %v", c.Rank(), i, part.Floats[0], want)
					}
				}
				return nil
			})
		})
	}
}

func TestSubGroupCollectives(t *testing.T) {
	// Two disjoint row groups on a 2x3 grid run broadcasts concurrently.
	runCluster(t, 6, func(c *Comm) error {
		row := c.Rank() / 3
		ranks := []int{row * 3, row*3 + 1, row*3 + 2}
		g := c.NewGroup(ranks)
		var in Payload
		if g.Rank() == 0 {
			in = Payload{Floats: []float64{float64(row)}}
		}
		out := g.Broadcast(0, in, CatDenseComm)
		if out.Floats[0] != float64(row) {
			return fmt.Errorf("rank %d: cross-group contamination: %v", c.Rank(), out.Floats)
		}
		return nil
	})
}

func TestGroupMembershipValidation(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected panic for non-member group")
					}
				}()
				c.NewGroup([]int{1})
			}()
		}
		return nil
	})
}

func TestChargeAccounting(t *testing.T) {
	cl := runCluster(t, 4, func(c *Comm) error {
		c.Charge(CatSparseComm, 3, 100)
		c.ChargeTime(CatSpMM, 0.5)
		return nil
	})
	l := cl.Ledger(0)
	if l.ModelMsgs[CatSparseComm] != 3 || l.ModelWords[CatSparseComm] != 100 {
		t.Fatalf("charge not recorded: %+v", l)
	}
	wantTime := 3*testCost.Alpha + 100*testCost.Beta
	if math.Abs(l.ModelTime[CatSparseComm]-wantTime) > 1e-15 {
		t.Fatalf("model time = %v, want %v", l.ModelTime[CatSparseComm], wantTime)
	}
	if l.ModelTime[CatSpMM] != 0.5 {
		t.Fatalf("compute charge = %v", l.ModelTime[CatSpMM])
	}
	if math.Abs(l.TotalTime()-(wantTime+0.5)) > 1e-12 {
		t.Fatalf("TotalTime = %v", l.TotalTime())
	}
}

func TestBroadcastChargesModel(t *testing.T) {
	cl := runCluster(t, 8, func(c *Comm) error {
		g := c.World()
		var in Payload
		if g.Rank() == 0 {
			in = Payload{Floats: make([]float64, 1000)}
		}
		g.Broadcast(0, in, CatDenseComm)
		return nil
	})
	for r := 0; r < 8; r++ {
		l := cl.Ledger(r)
		if l.ModelWords[CatDenseComm] != 1000 {
			t.Fatalf("rank %d charged %d words, want 1000", r, l.ModelWords[CatDenseComm])
		}
		if l.ModelMsgs[CatDenseComm] != 3 { // lg 8
			t.Fatalf("rank %d charged %d msgs, want 3", r, l.ModelMsgs[CatDenseComm])
		}
	}
}

// TestSingleMemberCollectivesChargeNothing: a group of one has no network
// to cross (§IV's bounds all carry (q−1)/q), so every collective hands the
// member its own input back and leaves the ledger empty — on a 1-rank
// cluster and on a size-1 sub-group of a larger one.
func TestSingleMemberCollectivesChargeNothing(t *testing.T) {
	for _, p := range []int{1, 4} {
		cl := runCluster(t, p, func(c *Comm) error {
			g := c.NewGroup([]int{c.Rank()})
			x := []float64{1, 2, float64(c.Rank())}
			in := Payload{Floats: x}
			for _, res := range []struct {
				op  string
				got []float64
			}{
				{"Broadcast", g.Broadcast(0, in, CatDenseComm).Floats},
				{"IBroadcast", g.IBroadcast(0, in, CatDenseComm).Wait().Floats},
				{"Reduce", g.Reduce(0, x, CatDenseComm)},
				{"AllReduce", g.AllReduce(x, CatMisc)},
				{"ReduceScatter", g.ReduceScatter(x, []int{len(x)}, CatDenseComm)},
				{"AllGather", g.AllGather(in, CatSparseComm)[0].Floats},
				{"IAllGather", g.IAllGather(in, CatSparseComm).WaitAll()[0].Floats},
				{"Gather", g.Gather(0, in, CatMisc)[0].Floats},
				{"AllToAll", g.AllToAll([]Payload{in}, CatTranspose)[0].Floats},
			} {
				if fmt.Sprint(res.got) != fmt.Sprint(x) {
					return fmt.Errorf("rank %d: %s returned %v, want %v", c.Rank(), res.op, res.got, x)
				}
			}
			// A member exchanges nothing with itself.
			if got := g.ExchangeIndexed([]Payload{{}}, []bool{false}, CatDenseComm); len(got) != 1 || got[0].Words() != 0 {
				return fmt.Errorf("rank %d: ExchangeIndexed returned %v", c.Rank(), got)
			}
			return nil
		})
		for r := 0; r < p; r++ {
			l := cl.Ledger(r)
			for _, cat := range AllCategories {
				if l.ModelMsgs[cat] != 0 || l.ModelWords[cat] != 0 || l.ModelTime[cat] != 0 {
					t.Errorf("P=%d rank %d %s: charged %d msgs, %d words, %g s; want nothing",
						p, r, cat, l.ModelMsgs[cat], l.ModelWords[cat], l.ModelTime[cat])
				}
			}
			if l.Elapsed() != 0 {
				t.Errorf("P=%d rank %d: clock at %g s, want 0", p, r, l.Elapsed())
			}
		}
	}
}

func TestLedgerResetAndAggregates(t *testing.T) {
	cl := runCluster(t, 2, func(c *Comm) error {
		c.Charge(CatDenseComm, 1, 10)
		c.Charge(CatSparseComm, 1, 5)
		return nil
	})
	if cl.TotalWords() != 30 {
		t.Fatalf("TotalWords = %d, want 30", cl.TotalWords())
	}
	byCat := cl.MaxWordsByCategory()
	if byCat[CatDenseComm] != 10 || byCat[CatSparseComm] != 5 {
		t.Fatalf("MaxWordsByCategory = %v", byCat)
	}
	if cl.MaxTotalTime() <= 0 {
		t.Fatal("MaxTotalTime should be positive")
	}
	cl.ResetLedgers()
	if cl.TotalWords() != 0 || cl.MaxTotalTime() != 0 {
		t.Fatal("ResetLedgers did not clear")
	}
}

func TestCommTimeExcludesCompute(t *testing.T) {
	cl := runCluster(t, 1, func(c *Comm) error {
		c.Charge(CatDenseComm, 0, 1000)
		c.Charge(CatTranspose, 0, 500)
		c.ChargeTime(CatSpMM, 42)
		return nil
	})
	l := cl.Ledger(0)
	wantComm := 1500 * testCost.Beta
	if math.Abs(l.CommTime()-wantComm) > 1e-15 {
		t.Fatalf("CommTime = %v, want %v", l.CommTime(), wantComm)
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := NewCluster(3, testCost)
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPayloadWords(t *testing.T) {
	p := Payload{Floats: make([]float64, 3), Ints: make([]int, 2)}
	if p.Words() != 5 {
		t.Fatalf("Words = %d, want 5", p.Words())
	}
}

func TestSelfSendPanics(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			defer func() {
				if recover() == nil {
					panic("expected self-send panic")
				}
			}()
			c.Send(0, Payload{}, CatMisc)
		}
		return nil
	})
}

func TestPhysicalAccounting(t *testing.T) {
	cl := runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, Payload{Floats: make([]float64, 7)}, CatMisc)
		} else {
			c.Recv(0)
		}
		return nil
	})
	if cl.Ledger(0).PhysWordsSent != 7 || cl.Ledger(0).PhysMsgsSent != 1 {
		t.Fatalf("phys ledger = %+v", cl.Ledger(0))
	}
	if cl.Ledger(1).PhysWordsSent != 0 {
		t.Fatal("receiver should not record sent words")
	}
}

func TestLg2(t *testing.T) {
	cases := map[int]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := lg2(n); got != want {
			t.Fatalf("lg2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16}
	for n, want := range cases {
		if got := nextPow2(n); got != want {
			t.Fatalf("nextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAccessorsAndMemTracking(t *testing.T) {
	cl := runCluster(t, 3, func(c *Comm) error {
		if c.Size() != 3 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		g := c.World()
		if g.Size() != 3 || g.GlobalRank(1) != 1 {
			return fmt.Errorf("group accessors wrong")
		}
		c.Ledger().RecordMem(int64(100 * (c.Rank() + 1)))
		c.Ledger().RecordMem(50) // lower value must not overwrite the peak
		c.ChargeTime(CatSpMM, float64(c.Rank()))
		return nil
	})
	if cl.Size() != 3 {
		t.Fatalf("cluster Size = %d", cl.Size())
	}
	if cl.MaxPeakMemWords() != 300 {
		t.Fatalf("MaxPeakMemWords = %d, want 300", cl.MaxPeakMemWords())
	}
	byCat := cl.MaxTimeByCategory()
	if byCat[CatSpMM] != 2 {
		t.Fatalf("MaxTimeByCategory[spmm] = %v, want 2", byCat[CatSpMM])
	}
	cl.ResetLedgers()
	if cl.MaxPeakMemWords() != 0 {
		t.Fatal("ResetLedgers must clear peak memory")
	}
}

func TestRecvValidation(t *testing.T) {
	runCluster(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected self-recv panic")
					}
				}()
				c.Recv(0)
			}()
			func() {
				defer func() {
					if recover() == nil {
						panic("expected out-of-range recv panic")
					}
				}()
				c.Recv(5)
			}()
		}
		return nil
	})
}
