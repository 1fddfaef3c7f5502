package comm

import (
	"fmt"
	"math"
	"time"
)

// Reading is one rank's modeled readings over a stretch of a run — the
// whole run so far (Ledger.Reading) or the last epoch (Ledger.LastEpoch) —
// or a reduction of several ranks' readings (Cluster.Max, Cluster.Sum).
type Reading struct {
	// Bulk is the bulk-synchronous modeled seconds, as if no communication
	// overlapped compute: every charge summed in the order it was made, so
	// a run's total has one value, bit for bit.
	Bulk float64
	// Elapsed is the timeline clock: the critical-path modeled seconds.
	// When every charge was synchronous it equals Bulk exactly — the same
	// additions in the same order; asynchronous charges waited on after
	// intervening compute shrink it by the hidden overlap.
	Elapsed float64
	// Hidden is the asynchronous communication seconds hidden behind
	// compute: the total span length of waited requests minus their
	// exposed remainders, the overlap headroom actually realized.
	Hidden float64
	// Time, Words and Msgs are modeled seconds, β-term words and α-term
	// messages per category.
	Time        [NumCategories]float64
	Words, Msgs [NumCategories]int64
	// Sent and Recv are what the rank physically pushed into and pulled
	// out of the fabric.
	Sent, Recv Traffic
	// PeakMemWords is the high-water mark of modeled resident words; over an
	// epoch, how far the epoch raised it.
	PeakMemWords int64
}

// Traffic counts messages and the words they carried.
type Traffic struct{ Msgs, Words int64 }

func (t *Traffic) add(p Payload) { t.Msgs, t.Words = t.Msgs+1, t.Words+p.Words() }

// step is one record of a rank's plan — a collective call (its α–β charges,
// the payloads it physically moved, its wall seconds) or a compute charge —
// made n times. Calls with equal keys made the same charges and moved the
// same traffic; secs is modeled seconds per call, size the group's.
type step struct {
	stepKey
	n    int64
	wall float64
}

type stepKey struct {
	op          string
	cat         Category
	size        int
	secs        float64
	msgs, words int64
	sent, recv  Traffic
}

func (k stepKey) String() string {
	if k.op == "" {
		return "none"
	}
	return fmt.Sprintf("%s %v over %d: %d msgs, %d words, %g s; sent %+v, received %+v",
		k.op, k.cat, k.size, k.msgs, k.words, k.secs, k.sent, k.recv)
}

// meterStart opens the step of one collective call, op over size members:
// its charges and payloads fill the step until meterDone closes it.
func (c *Comm) meterStart(op string, size int) time.Time {
	c.ledger.cur = stepKey{op: op, size: size}
	return time.Now()
}

// meterDone closes the open step, adding the call's wall seconds.
func (c *Comm) meterDone(start time.Time) {
	c.ledger.record(c.ledger.cur, time.Since(start).Seconds())
}

// record adds one step to the plan. Until the second EpochDone it appends
// (set-up and the first epoch, then the epoch segment); after it each round
// walks the segment: a step equal to its slot adds into it, allocating
// nothing, and one that is not is appended with the rest of its round.
func (l *Ledger) record(k stepKey, wall float64) {
	if l.closed >= 2 && l.left.op == "" {
		if l.next < l.segHi && l.steps[l.next].stepKey == k {
			l.steps[l.next].n++
			l.steps[l.next].wall += wall
			l.next++
			return
		}
		l.left = k
	}
	l.steps = append(l.steps, step{stepKey: k, n: 1, wall: wall})
}

// closeEpoch ends a round. The first two make steps[segLo:segHi] the round
// just recorded; every later one checks that the round repeated the
// segment, step for step, and keeps the first that did not as the drift.
func (l *Ledger) closeEpoch() {
	var want stepKey
	if l.next < l.segHi {
		want = l.steps[l.next].stepKey
	}
	if l.closed < 2 {
		l.segLo, l.segHi = l.segHi, len(l.steps)
	} else if l.drift == nil && want != l.left {
		l.drift = fmt.Errorf("comm: rank %d left its plan in epoch %d at step %d: want %v, got %v",
			l.rank, l.closed+1, l.next-l.segLo, want, l.left)
	}
	l.next, l.left = l.segLo, stepKey{}
	l.closed++
	l.bounds[l.closed%2] = l.timeline()
}

// Drift returns nil, or the first epoch from the third on that did not
// repeat the second step for step: its rank and epoch, the step index, the
// step expected there and the one made. What follows the last EpochDone
// (the final forward pass, the output gather) is never checked.
func (l *Ledger) Drift() error { return l.drift }

// timeline returns the ledger's running timeline readings.
func (l *Ledger) timeline() Reading {
	return Reading{Bulk: l.bulk, Elapsed: l.clock, Hidden: l.hidden, PeakMemWords: l.PeakMemWords}
}

// Reading returns the ledger's totals: every step folded, each as often as
// it was made, with the timeline's running readings.
func (l *Ledger) Reading() Reading { return fold(l.steps, math.MaxInt64).Add(l.timeline()) }

// LastEpoch returns the reading of the last epoch that EpochDone closed: the
// epoch segment's steps folded once each, with the timeline readings at
// that call less those at the call before it. When only one epoch has
// closed it is the reading from the start of the run to its close, set-up
// included; when none has, the zero reading.
func (l *Ledger) LastEpoch() Reading {
	return fold(l.steps[l.segLo:l.segHi], 1).Add(l.bounds[l.closed%2].Sub(l.bounds[(l.closed+1)%2]))
}

// fold sums steps per category, each as often as it was made, at most most.
func fold(steps []step, most int64) Reading {
	var r Reading
	for _, s := range steps {
		var one Reading
		one.Time[s.cat], one.Words[s.cat], one.Msgs[s.cat], one.Sent, one.Recv = s.secs, s.words, s.msgs, s.sent, s.recv
		r = r.plus(one, min(s.n, most))
	}
	return r
}

// wire folds the steps that moved data into the wire meter's sums: a step
// of m messages and w words made n times in Σt wall seconds is n samples.
func (l *Ledger) wire() WireSums {
	var s WireSums
	for _, st := range l.steps {
		m, w, n := float64(st.sent.Msgs+st.recv.Msgs), float64(st.sent.Words+st.recv.Words), float64(st.n)
		if m != 0 || w != 0 {
			s.Add(WireSums{Samples: st.n, Msgs: n * m, Words: n * w, MM: n * m * m, WW: n * w * w, MW: n * m * w, MT: m * st.wall, WT: w * st.wall})
		}
	}
	return s
}

// Add returns r + o, field by field and category by category.
func (r Reading) Add(o Reading) Reading { return r.plus(o, 1) }

// Sub returns r − o, field by field and category by category.
func (r Reading) Sub(o Reading) Reading { return r.plus(o, -1) }

// plus returns r + n·o; at n = −1 each float is r − o, bit for bit.
func (r Reading) plus(o Reading, n int64) Reading {
	f := float64(n)
	r.Bulk, r.Elapsed, r.Hidden = r.Bulk+f*o.Bulk, r.Elapsed+f*o.Elapsed, r.Hidden+f*o.Hidden
	for c := range r.Time {
		r.Time[c] += f * o.Time[c]
		r.Words[c] += n * o.Words[c]
		r.Msgs[c] += n * o.Msgs[c]
	}
	r.Sent = Traffic{r.Sent.Msgs + n*o.Sent.Msgs, r.Sent.Words + n*o.Sent.Words}
	r.Recv = Traffic{r.Recv.Msgs + n*o.Recv.Msgs, r.Recv.Words + n*o.Recv.Words}
	r.PeakMemWords += n * o.PeakMemWords
	return r
}

// Max returns the larger of r and o, field by field and category by
// category.
func (r Reading) Max(o Reading) Reading {
	r.Bulk, r.Elapsed, r.Hidden = max(r.Bulk, o.Bulk), max(r.Elapsed, o.Elapsed), max(r.Hidden, o.Hidden)
	for c := range r.Time {
		r.Time[c], r.Words[c], r.Msgs[c] = max(r.Time[c], o.Time[c]), max(r.Words[c], o.Words[c]), max(r.Msgs[c], o.Msgs[c])
	}
	r.Sent = Traffic{max(r.Sent.Msgs, o.Sent.Msgs), max(r.Sent.Words, o.Sent.Words)}
	r.Recv = Traffic{max(r.Recv.Msgs, o.Recv.Msgs), max(r.Recv.Words, o.Recv.Words)}
	r.PeakMemWords = max(r.PeakMemWords, o.PeakMemWords)
	return r
}

// Max returns the maximum over the hosted ranks of what read reads off each
// rank's ledger: per field and per category, the paper's per-process
// maximum (read it only after Run returns).
func (c *Cluster) Max(read func(*Ledger) Reading) Reading { return c.reduce(read, Reading.Max) }

// Sum returns the sum over the hosted ranks of what read reads off each
// rank's ledger: the total volume, as opposed to the per-rank maximum that
// bounds bulk-synchronous runtime — §IV-A-8's distinction between total and
// max edgecut.
func (c *Cluster) Sum(read func(*Ledger) Reading) Reading { return c.reduce(read, Reading.Add) }

func (c *Cluster) reduce(read func(*Ledger) Reading, op func(Reading, Reading) Reading) (out Reading) {
	for _, cm := range c.comms {
		out = op(out, read(cm.ledger))
	}
	return out
}
