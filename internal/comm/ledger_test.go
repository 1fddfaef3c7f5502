package comm

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Test-only ledger helpers: nothing outside this package's tests clears a
// ledger mid-run or charges outside a collective call.

// Reset clears all accumulated counts, the plan and the epoch-boundary
// readings included: it replaces the whole struct with a new ledger's, so
// no field can be missed.
func (l *Ledger) Reset() { *l = Ledger{rank: l.rank} }

// ResetLedgers clears all rank ledgers (e.g., to discard a warmup epoch).
func (c *Cluster) ResetLedgers() {
	for _, cm := range c.comms {
		cm.ledger.Reset()
	}
}

// Charge records one synchronous α–β charge, msgs α-units and words
// β-units under cat, as a step of its own.
func (c *Comm) Charge(cat Category, msgs, words int64) {
	c.ledger.cur = stepKey{op: "Charge"}
	c.charge(cat, msgs, words)
	c.ledger.record(c.ledger.cur, 0)
}

// commTime is the ledger's modeled seconds in the communication categories.
func commTime(l *Ledger) float64 {
	r := l.Reading()
	return r.Time[CatSparseComm] + r.Time[CatDenseComm] + r.Time[CatTranspose]
}

// TestLastEpoch: after each EpochDone the ledger returns that epoch's
// reading, on both fabrics — set-up included in the first epoch's, a
// category first charged in epoch 2 included in full, later epochs
// repeating epoch 2, and the zero reading before any epoch has closed.
func TestLastEpoch(t *testing.T) {
	const p = 3
	for name, cl := range map[string]*Cluster{"inproc": NewCluster(p, testCost), "tcp": tcpCluster(t, p)} {
		t.Run(name, func(t *testing.T) {
			runOn(t, cl, func(c *Comm) error {
				r, a, b := c.Rank(), testCost.Alpha, testCost.Beta
				prev := int64((r+p-1)%p + 1)
				if got := c.Ledger().LastEpoch(); got != (Reading{}) {
					return fmt.Errorf("rank %d: before any epoch, last epoch %+v, want the zero reading", r, got)
				}
				c.Charge(CatMisc, 1, 5) // set-up
				for e := int64(1); e <= 4; e++ {
					k := min(e, 2) // epochs 3 and 4 repeat epoch 2
					c.Send((r+1)%p, Payload{Floats: make([]float64, k*int64(r+1))}, CatDenseComm)
					c.Release(c.Recv((r + p - 1) % p))
					c.ChargeTime(CatSpMM, float64(k)*1e-3)
					var want Reading
					want.Time[CatDenseComm], want.Time[CatSpMM] = a+b*float64(k*int64(r+1)), float64(k)*1e-3
					want.Words[CatDenseComm], want.Msgs[CatDenseComm] = k*int64(r+1), 1
					want.Sent, want.Recv = Traffic{1, k * int64(r+1)}, Traffic{1, k * prev}
					if e >= 2 {
						c.Charge(CatSparseComm, 2, 7*k)
						want.Time[CatSparseComm], want.Words[CatSparseComm], want.Msgs[CatSparseComm] = 2*a+b*float64(7*k), 7*k, 2
					}
					c.Ledger().RecordMem(100 + 10*k)
					want.PeakMemWords = []int64{110, 10, 0, 0}[e-1]
					if e == 1 {
						want.Time[CatMisc], want.Words[CatMisc], want.Msgs[CatMisc] = a+5*b, 5, 1
					}
					for _, v := range want.Time {
						want.Bulk += v
					}
					want.Elapsed = want.Bulk
					c.EpochDone()
					if err := sameReading(c.Ledger().LastEpoch(), want); err != nil {
						return fmt.Errorf("rank %d epoch %d: %v", r, e, err)
					}
				}
				return c.Ledger().Drift()
			})
		})
	}
}

// sameReading compares got with want: words, messages and physical counts
// exactly, seconds to a relative 1e-12 (the epoch's timeline readings are a
// difference of running sums), every category either reading charges.
func sameReading(got, want Reading) error {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Abs(y) }
	if !near(got.Bulk, want.Bulk) || !near(got.Elapsed, want.Elapsed) || got.Hidden != want.Hidden || got.PeakMemWords != want.PeakMemWords {
		return fmt.Errorf("bulk %g, elapsed %g, hidden %g, peak %d; want %g, %g, %g, %d",
			got.Bulk, got.Elapsed, got.Hidden, got.PeakMemWords, want.Bulk, want.Elapsed, want.Hidden, want.PeakMemWords)
	}
	if got.Sent != want.Sent || got.Recv != want.Recv {
		return fmt.Errorf("sent %+v, received %+v; want %+v, %+v", got.Sent, got.Recv, want.Sent, want.Recv)
	}
	for cat := range NumCategories {
		if !near(got.Time[cat], want.Time[cat]) || got.Words[cat] != want.Words[cat] || got.Msgs[cat] != want.Msgs[cat] {
			return fmt.Errorf("%s: %g s, %d words, %d msgs; want %g, %d, %d",
				cat, got.Time[cat], got.Words[cat], got.Msgs[cat], want.Time[cat], want.Words[cat], want.Msgs[cat])
		}
	}
	return nil
}

// TestCloseEpochAllocatesNothing: once two epochs have closed, a round that
// repeats the second and the close that checks it allocate nothing.
func TestCloseEpochAllocatesNothing(t *testing.T) {
	runCluster(t, 1, func(c *Comm) error {
		charge := func() {
			for cat := range NumCategories {
				c.Charge(cat, 1, 3)
			}
		}
		charge()
		c.EpochDone()
		charge()
		c.EpochDone()
		if allocs := testing.AllocsPerRun(20, func() { charge(); c.ledger.closeEpoch() }); allocs != 0 {
			t.Errorf("closing an epoch allocated %v times", allocs)
		}
		return c.ledger.Drift()
	})
}

// tally is a test-side count of one rank's modeled and physical traffic.
type tally struct{ r Reading }

// charge adds one α–β charge under cat.
func (t *tally) charge(cat Category, msgs, words int64) {
	t.r.Time[cat] += float64(msgs)*testCost.Alpha + float64(words)*testCost.Beta
	t.r.Words[cat] += words
	t.r.Msgs[cat] += msgs
}

// moved adds physical messages of words each.
func (t *tally) moved(sent, recv, words int64) {
	t.r.Sent.Msgs, t.r.Sent.Words = t.r.Sent.Msgs+sent, t.r.Sent.Words+sent*words
	t.r.Recv.Msgs, t.r.Recv.Words = t.r.Recv.Msgs+recv, t.r.Recv.Words+recv*words
}

// bcast4 tallies a 4-member broadcast of words from member 0: the binomial
// tree's sends are 0→2, 0→1, 2→3.
func (t *tally) bcast4(me int, cat Category, words int64) {
	t.charge(cat, 2, words)
	t.moved([]int64{2, 0, 1, 0}[me], min(int64(me), 1), words)
}

// allReduce4 tallies a 4-member all-reduce of words: two charges, and two
// recursive-doubling swaps.
func (t *tally) allReduce4(cat Category, words int64) {
	t.charge(cat, 2, words)
	t.charge(cat, 2, words)
	t.moved(2, 2, words)
}

// sameFold compares a fold with a tally: words, messages and physical
// counts exactly, seconds to a relative 1e-12 (the fold adds per step, the
// tally per charge).
func sameFold(got, want Reading) error {
	got.Bulk, got.Elapsed, got.Hidden, got.PeakMemWords = 0, 0, 0, 0
	return sameReading(got, want)
}

// TestDriftNamesRankEpochStep: in a 4-rank world running 5 identical rounds,
// one rank that charges one extra compute step in round 4 is the only rank
// with a drift, and the drift names it, epoch 4 and the step's index; the
// folds still count every step, the extra one included. Both fabrics.
func TestDriftNamesRankEpochStep(t *testing.T) {
	const p, odd = 4, 2
	for name, cl := range map[string]*Cluster{"inproc": NewCluster(p, testCost), "tcp": tcpCluster(t, p)} {
		t.Run(name, func(t *testing.T) {
			var drift [p]error
			var tallies [p]tally
			runOn(t, cl, func(c *Comm) error {
				me, w := c.Rank(), c.World()
				tl := &tallies[me]
				in := Payload{}
				if me == 0 {
					in = Payload{Floats: []float64{1, 2, 3}}
				}
				for round := 1; round <= 5; round++ {
					w.Broadcast(0, in, CatDenseComm)
					tl.bcast4(me, CatDenseComm, 3)
					if me == odd && round == 4 {
						c.ChargeTime(CatMisc, 1e-4)
						tl.r.Time[CatMisc] += 1e-4
					}
					c.ChargeTime(CatSpMM, 1e-3)
					tl.r.Time[CatSpMM] += 1e-3
					w.AllReduce([]float64{1, 2}, CatMisc)
					tl.allReduce4(CatMisc, 2)
					c.EpochDone()
				}
				drift[me] = c.Ledger().Drift()
				return sameFold(c.Ledger().Reading(), tallies[me].r)
			})
			for r, err := range drift {
				if r != odd {
					if err != nil {
						t.Errorf("rank %d repeated its plan, yet drifted: %v", r, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("rank %d charged an extra step in epoch 4 and has no drift", r)
				}
				for _, want := range []string{"rank 2 ", "epoch 4 ", "step 1:", "want ChargeTime spmm", "got ChargeTime misc"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("drift %q does not name %q", err, want)
					}
				}
			}
		})
	}
}

// TestProbePatternFolds replays the wall-clock benchmark's collective
// probes, which close an epoch between different collectives — a broadcast
// loop, an all-reduce outside any loop, an IBroadcast loop, a round in
// which only two ranks ping — and checks that no rank panics and that
// every rank's Reading is the test's tally. Both fabrics.
func TestProbePatternFolds(t *testing.T) {
	const p, reps = 4, 3
	for name, cl := range map[string]*Cluster{"inproc": NewCluster(p, testCost), "tcp": tcpCluster(t, p)} {
		t.Run(name, func(t *testing.T) {
			runOn(t, cl, func(c *Comm) error {
				me, w := c.Rank(), c.World()
				var tl tally
				in := Payload{}
				if me == 0 {
					in = Payload{Floats: make([]float64, 5)}
				}
				for range reps {
					c.Barrier()
					w.Broadcast(0, in, CatDenseComm)
					tl.bcast4(me, CatDenseComm, 5)
					c.EpochDone()
				}
				w.AllReduce([]float64{1}, CatMisc)
				tl.allReduce4(CatMisc, 1)
				for range reps {
					c.Barrier()
					w.IBroadcast(0, in, CatDenseComm).Wait()
					tl.bcast4(me, CatDenseComm, 5)
					c.EpochDone()
				}
				word := Payload{Floats: []float64{1}}
				for range 2 {
					switch me {
					case 0:
						c.Send(1, word, CatMisc)
						c.Recv(1)
					case 1:
						c.Recv(0)
						c.Send(0, word, CatMisc)
					}
					if me < 2 {
						tl.charge(CatMisc, 1, 1)
						tl.moved(1, 1, 1)
					}
				}
				c.EpochDone()
				return sameFold(c.Ledger().Reading(), tl.r)
			})
		})
	}
}

// TestTailIsNotDrift: after the last EpochDone a trainer runs the epoch's
// forward prefix and then gathers its output, and closes no epoch; that
// tail is no drift, the folds count it, and LastEpoch is still one round.
func TestTailIsNotDrift(t *testing.T) {
	const p = 4
	for name, cl := range map[string]*Cluster{"inproc": NewCluster(p, testCost), "tcp": tcpCluster(t, p)} {
		t.Run(name, func(t *testing.T) {
			runOn(t, cl, func(c *Comm) error {
				me, w := c.Rank(), c.World()
				var run, round tally
				in := Payload{}
				if me == 0 {
					in = Payload{Floats: make([]float64, 4)}
				}
				forward := func(tl *tally) {
					w.Broadcast(0, in, CatDenseComm)
					tl.bcast4(me, CatDenseComm, 4)
					c.ChargeTime(CatSpMM, 2e-3)
					tl.r.Time[CatSpMM] += 2e-3
				}
				for range 3 {
					round = tally{}
					forward(&round)
					w.AllReduce([]float64{1, 2, 3}, CatDenseComm)
					round.allReduce4(CatDenseComm, 3)
					c.EpochDone()
					run.r = run.r.Add(round.r)
				}
				forward(&run)
				w.Gather(0, Payload{Floats: []float64{float64(me)}}, CatMisc)
				run.charge(CatMisc, 2, 1)
				if me == 0 {
					run.moved(0, p-1, 1)
				} else {
					run.moved(1, 0, 1)
				}
				if err := c.Ledger().Drift(); err != nil {
					return fmt.Errorf("rank %d: tail read as drift: %v", me, err)
				}
				if err := sameFold(c.Ledger().LastEpoch(), round.r); err != nil {
					return fmt.Errorf("rank %d last epoch: %v", me, err)
				}
				return sameFold(c.Ledger().Reading(), run.r)
			})
		})
	}
}
