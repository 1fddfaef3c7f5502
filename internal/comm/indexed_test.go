package comm

import (
	"fmt"
	"testing"
)

// TestExchangeIndexedRing exchanges a payload around a ring: every rank
// sends to its successor and receives from its predecessor, with sizes
// that differ per rank so the charges are distinguishable.
func TestExchangeIndexedRing(t *testing.T) {
	const p = 5
	cl := NewCluster(p, CostParams{Alpha: 1, Beta: 1})
	err := cl.Run(func(c *Comm) error {
		g := c.World()
		me := g.Rank()
		next, prev := (me+1)%p, (me-1+p)%p
		parts := make([]Payload, p)
		parts[next] = Payload{Floats: makeSeq(me, me+1)} // me+1 words
		from := make([]bool, p)
		from[prev] = true
		out := g.ExchangeIndexed(parts, from, CatDenseComm)
		want := makeSeq(prev, prev+1)
		if len(out[prev].Floats) != len(want) {
			return fmt.Errorf("rank %d received %d words, want %d", me, len(out[prev].Floats), len(want))
		}
		for i, v := range want {
			if out[prev].Floats[i] != v {
				return fmt.Errorf("rank %d word %d = %v, want %v", me, i, out[prev].Floats[i], v)
			}
		}
		for i, pl := range out {
			if i != prev && pl.Words() != 0 {
				return fmt.Errorf("rank %d received unexpected payload from %d", me, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank is charged for its inbound traffic only: 1 message and
	// prev+1 words (rank prev sent prev+1 floats).
	for r := 0; r < p; r++ {
		l := cl.Ledger(r)
		prev := (r - 1 + p) % p
		if l.Reading().Msgs[CatDenseComm] != 1 {
			t.Fatalf("rank %d charged %d msgs, want 1", r, l.Reading().Msgs[CatDenseComm])
		}
		if want := int64(prev + 1); l.Reading().Words[CatDenseComm] != want {
			t.Fatalf("rank %d charged %d words, want %d", r, l.Reading().Words[CatDenseComm], want)
		}
	}
}

func makeSeq(seed, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(seed*100 + i)
	}
	return out
}

// TestExchangeIndexedSparsePattern: pairs that exchange nothing are not
// charged at all — the property that makes the collective sparsity-aware.
func TestExchangeIndexedSparsePattern(t *testing.T) {
	const p = 4
	cl := NewCluster(p, CostParams{Alpha: 1, Beta: 1})
	err := cl.Run(func(c *Comm) error {
		g := c.World()
		parts := make([]Payload, p)
		from := make([]bool, p)
		// Only rank 0 → rank 2 moves data.
		if g.Rank() == 0 {
			parts[2] = Payload{Floats: []float64{7, 8, 9}}
		}
		if g.Rank() == 2 {
			from[0] = true
		}
		out := g.ExchangeIndexed(parts, from, CatDenseComm)
		if g.Rank() == 2 && len(out[0].Floats) != 3 {
			return fmt.Errorf("rank 2 got %d words", len(out[0].Floats))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		l := cl.Ledger(r)
		wantWords, wantMsgs := int64(0), int64(0)
		if r == 2 {
			wantWords, wantMsgs = 3, 1
		}
		if l.Reading().Words[CatDenseComm] != wantWords || l.Reading().Msgs[CatDenseComm] != wantMsgs {
			t.Fatalf("rank %d charged %d msgs / %d words, want %d / %d",
				r, l.Reading().Msgs[CatDenseComm], l.Reading().Words[CatDenseComm], wantMsgs, wantWords)
		}
		if r != 0 && l.Reading().Sent.Words != 0 {
			t.Fatalf("rank %d physically sent %d words", r, l.Reading().Sent.Words)
		}
	}
	if cl.Ledger(0).Reading().Sent.Words != 3 {
		t.Fatalf("rank 0 physically sent %d words, want 3", cl.Ledger(0).Reading().Sent.Words)
	}
}

// TestExchangeIndexedAllPairs stresses a dense pattern under repeated
// rounds: every pair exchanges every round (the deadlock-freedom check
// the mailbox-depth argument relies on).
func TestExchangeIndexedAllPairs(t *testing.T) {
	const p, rounds = 6, 20
	cl := NewCluster(p, CostParams{Alpha: 1, Beta: 1})
	err := cl.Run(func(c *Comm) error {
		g := c.World()
		me := g.Rank()
		for round := 0; round < rounds; round++ {
			parts := make([]Payload, p)
			from := make([]bool, p)
			for i := 0; i < p; i++ {
				if i == me {
					continue
				}
				parts[i] = Payload{Floats: []float64{float64(me*1000 + round)}}
				from[i] = true
			}
			out := g.ExchangeIndexed(parts, from, CatDenseComm)
			for i := 0; i < p; i++ {
				if i == me {
					continue
				}
				if want := float64(i*1000 + round); out[i].Floats[0] != want {
					return fmt.Errorf("rank %d round %d from %d: %v, want %v",
						me, round, i, out[i].Floats[0], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSumWordsByCategory: Cluster.Sum accumulates across all ranks, unlike
// the per-rank Max.
func TestSumWordsByCategory(t *testing.T) {
	const p = 3
	cl := NewCluster(p, CostParams{Alpha: 1, Beta: 1})
	err := cl.Run(func(c *Comm) error {
		c.Charge(CatDenseComm, 1, int64(10*(c.Rank()+1)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Sum((*Ledger).Reading).Words[CatDenseComm]; got != 60 {
		t.Fatalf("summed words = %d, want 60", got)
	}
	if got := cl.Max((*Ledger).Reading).Words[CatDenseComm]; got != 30 {
		t.Fatalf("max words = %d, want 30", got)
	}
}
