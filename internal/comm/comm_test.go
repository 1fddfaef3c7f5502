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

// orderInputs returns p vectors of n words mixing 1e16, 1, −1e16 and
// 3.3e-7, so their elementwise sums depend on the order of the additions.
func orderInputs(p, n int) [][]float64 {
	vals := []float64{1e16, 1, -1e16, 3.3e-7}
	xs := make([][]float64, p)
	for r := range xs {
		xs[r] = make([]float64, n)
		for i := range xs[r] {
			xs[r][i] = vals[(r*3+i*5+r*i)%len(vals)] * float64(1+(r+i)%3)
		}
	}
	return xs
}

// binomialSum is the order oracle: the elementwise sum of xs as a binomial
// reduce onto member 0 adds it — at level m = 1, 2, 4, … the partial of
// each aligned block of 2m members is its lower half's plus its upper
// half's — computed sequentially.
func binomialSum(xs [][]float64) []float64 {
	acc := make([][]float64, len(xs))
	for r, x := range xs {
		acc[r] = append([]float64(nil), x...)
	}
	for m := 1; m < len(xs); m <<= 1 {
		for v := 0; v+m < len(xs); v += 2 * m {
			for i := range acc[v] {
				acc[v][i] = acc[v][i] + acc[v+m][i]
			}
		}
	}
	return acc[0]
}

// TestReduceAllSizes is the order test of the reductions: on the channel
// fabric at every size up to 12 and over loopback TCP up to 9, AllReduce on
// every member and each member's ReduceScatter slice equal the binomial
// oracle bit for bit — under uneven and zero counts, on inputs whose sum
// the order changes — and AllGather returns every part's Floats and Ints,
// unequal and empty parts included, with the caller's own slot its own
// payload.
func TestReduceAllSizes(t *testing.T) {
	for p := 1; p <= 12; p++ {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			counts := make([]int, p)
			n := 0
			for k := range counts {
				counts[k] = (k*5 + 2) % 4
				n += counts[k]
			}
			xs := orderInputs(p, n)
			want := binomialSum(xs)
			if p >= 4 { // below 4 members the binomial order is left to right
				var left []float64
				for i := range want {
					s := xs[0][i]
					for _, x := range xs[1:] {
						s += x[i]
					}
					left = append(left, s)
				}
				if sameBits(left, want) {
					t.Fatalf("inputs sum to the same bits left to right as in binomial order: %v", want)
				}
			}
			part := func(r int) Payload {
				pl := Payload{Floats: make([]float64, r%3), Ints: make([]int, (r+1)%2*(r+2))}
				for i := range pl.Floats {
					pl.Floats[i] = float64(r) + float64(i)/8
				}
				for i := range pl.Ints {
					pl.Ints[i] = 100*r + i
				}
				return pl
			}
			check := func(c *Comm) error {
				g, me := c.World(), c.Rank()
				if got := g.AllReduce(xs[me], CatDenseComm); !sameBits(got, want) {
					return fmt.Errorf("rank %d: AllReduce %v, binomial order %v", me, got, want)
				}
				off := 0
				for _, k := range counts[:me] {
					off += k
				}
				if got := g.ReduceScatter(xs[me], counts, CatDenseComm); !sameBits(got, want[off:off+counts[me]]) {
					return fmt.Errorf("rank %d: ReduceScatter %v, binomial order %v", me, got, want[off:off+counts[me]])
				}
				mine := part(me)
				got := g.AllGather(mine, CatDenseComm)
				for r, pl := range got {
					if w := part(r); fmt.Sprint(pl.Floats, pl.Ints) != fmt.Sprint(w.Floats, w.Ints) {
						return fmt.Errorf("rank %d: AllGather part %d = %v %v, want %v %v", me, r, pl.Floats, pl.Ints, w.Floats, w.Ints)
					}
				}
				if len(mine.Ints) > 0 && &got[me].Ints[0] != &mine.Ints[0] {
					return fmt.Errorf("rank %d: AllGather's own slot is a copy, not the caller's payload", me)
				}
				return nil
			}
			runCluster(t, p, check)
			if p <= 9 {
				runTCP(t, p, check)
			}
		})
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReduceScatterLengthMismatch: a member whose data disagrees in length
// fails the run instead of summing a prefix.
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

// TestCollectivePhysicalTraffic pins what each schedule puts on the wire,
// per member: the ring AllGather sends q−1 messages carrying every part but
// the right neighbour's own; at a power-of-two q, AllReduce sends lg q
// messages of the whole vector and ReduceScatter lg q messages totalling
// all but the member's own slice.
func TestCollectivePhysicalTraffic(t *testing.T) {
	type traffic struct{ msgs, words int64 }
	for _, q := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("q=%d", q), func(t *testing.T) {
			const m = 5
			part := func(r int) Payload { return Payload{Floats: make([]float64, r+1), Ints: make([]int, r%2)} }
			counts := make([]int, q)
			total := 0
			for k := range counts {
				counts[k] = k % 3
				total += counts[k]
			}
			var got [3][]traffic
			for i := range got {
				got[i] = make([]traffic, q)
			}
			runCluster(t, q, func(c *Comm) error {
				g, l := c.World(), c.Ledger()
				for i, op := range []func(){
					func() { g.AllGather(part(c.Rank()), CatDenseComm) },
					func() { g.AllReduce(make([]float64, m), CatDenseComm) },
					func() { g.ReduceScatter(make([]float64, total), counts, CatDenseComm) },
				} {
					msgs, words := l.Reading().Sent.Msgs, l.Reading().Sent.Words
					op()
					got[i][c.Rank()] = traffic{l.Reading().Sent.Msgs - msgs, l.Reading().Sent.Words - words}
				}
				return nil
			})
			var parts int64
			for r := 0; r < q; r++ {
				parts += part(r).Words()
			}
			lg := lg2(q)
			for r := 0; r < q; r++ {
				if want := (traffic{int64(q - 1), parts - part((r+1)%q).Words()}); got[0][r] != want {
					t.Errorf("rank %d AllGather sent %+v, want %+v", r, got[0][r], want)
				}
				if q&(q-1) != 0 {
					continue
				}
				if want := (traffic{lg, lg * m}); got[1][r] != want {
					t.Errorf("rank %d AllReduce sent %+v, want %+v", r, got[1][r], want)
				}
				if want := (traffic{lg, int64(total - counts[r])}); got[2][r] != want {
					t.Errorf("rank %d ReduceScatter sent %+v, want %+v", r, got[2][r], want)
				}
			}
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
	if l.Reading().Msgs[CatSparseComm] != 3 || l.Reading().Words[CatSparseComm] != 100 {
		t.Fatalf("charge not recorded: %+v", l)
	}
	wantTime := 3*testCost.Alpha + 100*testCost.Beta
	if math.Abs(l.Reading().Time[CatSparseComm]-wantTime) > 1e-15 {
		t.Fatalf("model time = %v, want %v", l.Reading().Time[CatSparseComm], wantTime)
	}
	if l.Reading().Time[CatSpMM] != 0.5 {
		t.Fatalf("compute charge = %v", l.Reading().Time[CatSpMM])
	}
	if math.Abs(l.Reading().Bulk-(wantTime+0.5)) > 1e-12 {
		t.Fatalf("bulk = %v", l.Reading().Bulk)
	}
}

// TestTotalTimeIsChargeOrderSum: the bulk reading adds the charges in the
// order they were made, whatever categories hold them, so one ledger reads
// the same bits on every call. A large first charge makes the order visible:
// each later 1-second span rounds away against 1e16, while the four summed
// first would survive.
func TestTotalTimeIsChargeOrderSum(t *testing.T) {
	charges := []struct {
		cat Category
		sec float64
	}{{CatSpMM, 1e16}, {CatMisc, 1}, {CatDenseComm, 1}, {CatSparseComm, 1}, {CatTranspose, 1}}
	l := runSchedule(t, func(c *Comm) {
		for _, ch := range charges {
			c.ChargeTime(ch.cat, ch.sec)
		}
	})
	var want float64
	for _, ch := range charges {
		want += ch.sec
	}
	for i := 0; i < 200; i++ {
		if got := l.Reading().Bulk; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: bulk = %v, want the charge-order sum %v", i, got, want)
		}
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
		if l.Reading().Words[CatDenseComm] != 1000 {
			t.Fatalf("rank %d charged %d words, want 1000", r, l.Reading().Words[CatDenseComm])
		}
		if l.Reading().Msgs[CatDenseComm] != 3 { // lg 8
			t.Fatalf("rank %d charged %d msgs, want 3", r, l.Reading().Msgs[CatDenseComm])
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
			for cat := range NumCategories {
				if l.Reading().Msgs[cat] != 0 || l.Reading().Words[cat] != 0 || l.Reading().Time[cat] != 0 {
					t.Errorf("P=%d rank %d %s: charged %d msgs, %d words, %g s; want nothing",
						p, r, cat, l.Reading().Msgs[cat], l.Reading().Words[cat], l.Reading().Time[cat])
				}
			}
			if l.Reading().Elapsed != 0 {
				t.Errorf("P=%d rank %d: clock at %g s, want 0", p, r, l.Reading().Elapsed)
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
	sum := cl.Sum((*Ledger).Reading).Words
	if sum[CatDenseComm] != 20 || sum[CatSparseComm] != 10 {
		t.Fatalf("summed words = %v, want 20 dcomm and 10 scomm", sum)
	}
	mx := cl.Max((*Ledger).Reading)
	if mx.Words[CatDenseComm] != 10 || mx.Words[CatSparseComm] != 5 {
		t.Fatalf("max words = %v", mx.Words)
	}
	if mx.Bulk <= 0 {
		t.Fatal("max bulk time should be positive")
	}
	cl.ResetLedgers()
	if r := cl.Max((*Ledger).Reading); r != (Reading{}) {
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
	if math.Abs(commTime(l)-wantComm) > 1e-15 || l.Reading().Time[CatSpMM] != 42 {
		t.Fatalf("comm time = %v, spmm %v; want %v and 42", commTime(l), l.Reading().Time[CatSpMM], wantComm)
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
	if cl.Ledger(0).Reading().Sent.Words != 7 || cl.Ledger(0).Reading().Sent.Msgs != 1 {
		t.Fatalf("phys ledger = %+v", cl.Ledger(0))
	}
	if cl.Ledger(1).Reading().Sent.Words != 0 {
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
		if g.Size() != 3 {
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
	mx := cl.Max((*Ledger).Reading)
	if mx.PeakMemWords != 300 {
		t.Fatalf("max peak = %d, want 300", mx.PeakMemWords)
	}
	if mx.Time[CatSpMM] != 2 {
		t.Fatalf("max spmm time = %v, want 2", mx.Time[CatSpMM])
	}
	cl.ResetLedgers()
	if cl.Max((*Ledger).Reading).PeakMemWords != 0 {
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
