package comm

import (
	"fmt"
	"math"
	"testing"
)

// Test-only ledger helpers: nothing outside this package's tests clears a
// ledger mid-run.

// Reset clears all accumulated counts, the epoch-boundary readings
// included: it replaces the whole struct with a new ledger's, so no field
// can be missed.
func (l *Ledger) Reset() { *l = *newLedger() }

// ResetLedgers clears all rank ledgers (e.g., to discard a warmup epoch).
func (c *Cluster) ResetLedgers() {
	for _, cm := range c.comms {
		cm.ledger.Reset()
	}
}

// commTime is the ledger's modeled seconds in the communication categories.
func commTime(l *Ledger) float64 {
	return l.ModelTime[CatSparseComm] + l.ModelTime[CatDenseComm] + l.ModelTime[CatTranspose]
}

// TestLastEpoch: after each EpochDone the ledger returns that epoch's
// reading, on both fabrics — set-up included in the first epoch's, a
// category first charged in epoch 2 included in full, and the zero reading
// before any epoch has closed.
func TestLastEpoch(t *testing.T) {
	const p = 3
	for name, cl := range map[string]*Cluster{"inproc": NewCluster(p, testCost), "tcp": tcpCluster(t, p)} {
		t.Run(name, func(t *testing.T) {
			runOn(t, cl, func(c *Comm) error {
				r, a, b := c.Rank(), testCost.Alpha, testCost.Beta
				if got := c.Ledger().LastEpoch(); got.Bulk != 0 || len(got.Time)+len(got.Words)+len(got.Msgs) != 0 {
					return fmt.Errorf("rank %d: before any epoch, last epoch %+v, want the zero reading", r, got)
				}
				c.Charge(CatMisc, 1, 5) // set-up
				for e := int64(1); e <= 3; e++ {
					c.Send((r+1)%p, Payload{Floats: make([]float64, e*int64(r+1))}, CatDenseComm)
					c.Release(c.Recv((r + p - 1) % p))
					c.ChargeTime(CatSpMM, float64(e)*1e-3)
					want := Reading{
						Time:  map[Category]float64{CatDenseComm: a + b*float64(e*int64(r+1)), CatSpMM: float64(e) * 1e-3},
						Words: map[Category]int64{CatDenseComm: e * int64(r+1)},
						Msgs:  map[Category]int64{CatDenseComm: 1},
					}
					if e >= 2 {
						c.Charge(CatSparseComm, 2, 7*e)
						want.Time[CatSparseComm], want.Words[CatSparseComm], want.Msgs[CatSparseComm] = 2*a+b*float64(7*e), 7*e, 2
					}
					c.Ledger().RecordMem(100 + 10*e)
					want.PeakMemWords = 10
					if e == 1 {
						want.Time[CatMisc], want.Words[CatMisc], want.Msgs[CatMisc] = a+5*b, 5, 1
						want.PeakMemWords = 110
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
				return nil
			})
		})
	}
}

// sameReading compares got with want: words and messages exactly, seconds to
// a relative 1e-12 (the epoch's are a difference of running sums), every
// category either reading charges.
func sameReading(got, want Reading) error {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Abs(y) }
	if !near(got.Bulk, want.Bulk) || !near(got.Elapsed, want.Elapsed) || got.Hidden != want.Hidden || got.PeakMemWords != want.PeakMemWords {
		return fmt.Errorf("bulk %g, elapsed %g, hidden %g, peak %d; want %g, %g, %g, %d",
			got.Bulk, got.Elapsed, got.Hidden, got.PeakMemWords, want.Bulk, want.Elapsed, want.Hidden, want.PeakMemWords)
	}
	for _, cat := range AllCategories {
		if !near(got.Time[cat], want.Time[cat]) || got.Words[cat] != want.Words[cat] || got.Msgs[cat] != want.Msgs[cat] {
			return fmt.Errorf("%s: %g s, %d words, %d msgs; want %g, %d, %d",
				cat, got.Time[cat], got.Words[cat], got.Msgs[cat], want.Time[cat], want.Words[cat], want.Msgs[cat])
		}
	}
	return nil
}

// TestCloseEpochAllocatesNothing: once every category has been charged and
// two epochs have closed, keeping an epoch's reading allocates nothing.
func TestCloseEpochAllocatesNothing(t *testing.T) {
	runCluster(t, 1, func(c *Comm) error {
		charge := func() {
			for _, cat := range AllCategories {
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
		return nil
	})
}
