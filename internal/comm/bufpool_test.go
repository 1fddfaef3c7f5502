package comm

import (
	"math"
	"testing"

	"repro/internal/dense"
)

// pair returns the two endpoints of a fresh channel fabric, driven from the
// test's one goroutine: a send never blocks below the mailbox depth.
func pair() (a, b *Comm) {
	cl := NewCluster(2, testCost)
	return cl.comms[0], cl.comms[1]
}

// endRound recycles both endpoints' fabric without Recycle's barriers,
// which one goroutine cannot enter for two ranks.
func endRound(cs ...*Comm) {
	for _, c := range cs {
		c.pool.recycle()
		c.tr.(epochRecycler).EpochRecycle()
	}
}

// TestReleasedBufferWaitsForAck: a buffer rank 1 releases serves rank 0's
// next payload only once rank 0 has received something rank 1 sent after
// the release — the rule that makes which checkout allocates a function of
// the program, not of goroutine timing — and within the round, not only
// after its Recycle.
func TestReleasedBufferWaitsForAck(t *testing.T) {
	a, b := pair()
	msg := Payload{Floats: make([]float64, 100)}
	a.sendRaw(1, msg)
	first := b.recvRaw(0)
	b.Release(first)
	a.sendRaw(1, msg)
	if got := b.recvRaw(0); &got.Floats[0] == &first.Floats[0] {
		t.Fatal("a buffer was reused before its sender knew of the release")
	}
	b.sendRaw(0, Payload{Ints: []int{1}})
	a.recvRaw(1)
	a.sendRaw(1, msg)
	if got := b.recvRaw(0); &got.Floats[0] != &first.Floats[0] {
		t.Fatal("the released buffer did not serve the payload sent after its ack")
	}
}

// TestReleasePoisonsAndKeepForgets: a released buffer reads NaN in a
// race-detector build, a buffer Release did not hand out is left alone,
// and a kept one leaves the fabric: held words drop by its class, and
// neither Release nor Recycle touches it again.
func TestReleasePoisonsAndKeepForgets(t *testing.T) {
	a, b := pair()
	a.sendRaw(1, Payload{Floats: []float64{1, 2, 3}})
	got := b.recvRaw(0)
	own := []float64{4, 5}
	b.Release(Payload{Floats: own})
	b.Release(got)
	if math.IsNaN(got.Floats[0]) != dense.PoisonReleased || own[0] != 4 {
		t.Fatalf("after Release: received %v, caller's own %v (poison %v)", got.Floats, own, dense.PoisonReleased)
	}
	a.sendRaw(1, Payload{Floats: make([]float64, 1000)})
	kept := b.recvRaw(0)
	held := b.HeldWords()
	b.Keep(kept)
	if b.HeldWords() != held-int64(cap(kept.Floats)) {
		t.Fatalf("Keep left %d words held, want %d", b.HeldWords(), held-int64(cap(kept.Floats)))
	}
	kept.Floats[0] = 7
	b.Release(kept)
	endRound(a, b)
	if kept.Floats[0] != 7 {
		t.Fatalf("a kept buffer was touched by Release or Recycle: %v", kept.Floats[0])
	}
}

// TestRecycleDropsWhatARoundNeverTook: a buffer class a whole round did
// not check out leaves the fabric at its end, while the classes the round
// used stay, as many as it needed at once.
func TestRecycleDropsWhatARoundNeverTook(t *testing.T) {
	a, b := pair()
	wide, narrow := Payload{Floats: make([]float64, 4096)}, Payload{Floats: make([]float64, 64)}
	a.sendRaw(1, wide)
	a.sendRaw(1, narrow)
	b.recvRaw(0)
	b.recvRaw(0)
	endRound(a, b)
	if got, want := b.HeldWords(), int64(4096+64); got != want {
		t.Fatalf("after the set-up round the arena holds %d words, want %d", got, want)
	}
	for range 2 {
		a.sendRaw(1, narrow)
		b.recvRaw(0)
		endRound(a, b)
	}
	if got, want := b.HeldWords(), int64(64); got != want {
		t.Fatalf("after two narrow rounds the arena holds %d words, want %d", got, want)
	}
}

// TestReleaseAndKeepAllocateNothing: a round of send, receive, Release and
// recycle allocates nothing once the lists are sized, and neither does
// Keep.
func TestReleaseAndKeepAllocateNothing(t *testing.T) {
	a, b := pair()
	msg := Payload{Floats: make([]float64, 300), Ints: make([]int, 5)}
	round := func() {
		for range 3 {
			a.sendRaw(1, msg)
			b.Release(b.recvRaw(0))
			b.sendRaw(0, msg)
			a.Release(a.recvRaw(1))
		}
		endRound(a, b)
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("a round with releases allocates %v objects", n)
	}
	got := make([]Payload, 30)
	for i := range got {
		a.sendRaw(1, msg)
		got[i] = b.recvRaw(0)
	}
	next := 0
	if n := testing.AllocsPerRun(20, func() { b.Keep(got[next]); next++ }); n != 0 {
		t.Errorf("Keep allocates %v objects", n)
	}
}
