package comm

import "maps"

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
	Time        map[Category]float64
	Words, Msgs map[Category]int64
	// PeakMemWords is the high-water mark of modeled resident words; over an
	// epoch, how far the epoch raised it.
	PeakMemWords int64
}

// Reading returns the ledger's running totals. Its maps are the ledger's
// own: read them before the rank charges again.
func (l *Ledger) Reading() Reading {
	return Reading{
		Bulk: l.bulk, Elapsed: l.clock, Hidden: l.hidden,
		Time: l.ModelTime, Words: l.ModelWords, Msgs: l.ModelMsgs,
		PeakMemWords: l.PeakMemWords,
	}
}

// LastEpoch returns the reading of the last epoch that EpochDone closed: the
// running totals at that call less those at the call before it. When only
// one epoch has closed it is the reading from the start of the run to its
// close, set-up included; when none has, the zero reading.
func (l *Ledger) LastEpoch() Reading {
	return l.epochs[l.closed%2].Sub(l.epochs[(l.closed+1)%2])
}

// closeEpoch copies the running totals over the older of the ledger's two
// epoch-boundary readings, which becomes the newer. Each of its maps already
// holds every category charged before the previous boundary, so once the
// first epochs have charged every category the copy allocates nothing.
func (l *Ledger) closeEpoch() {
	l.closed++
	s := &l.epochs[l.closed%2]
	s.Bulk, s.Elapsed, s.Hidden, s.PeakMemWords = l.bulk, l.clock, l.hidden, l.PeakMemWords
	maps.Copy(s.Time, l.ModelTime)
	maps.Copy(s.Words, l.ModelWords)
	maps.Copy(s.Msgs, l.ModelMsgs)
}

// newReading returns a zero reading with its maps made.
func newReading() Reading {
	return Reading{Time: make(map[Category]float64), Words: make(map[Category]int64), Msgs: make(map[Category]int64)}
}

// Add returns r + o, field by field and category by category.
func (r Reading) Add(o Reading) Reading {
	return Reading{
		Bulk: r.Bulk + o.Bulk, Elapsed: r.Elapsed + o.Elapsed, Hidden: r.Hidden + o.Hidden,
		Time: merge(r.Time, o.Time, plus), Words: merge(r.Words, o.Words, plus),
		Msgs: merge(r.Msgs, o.Msgs, plus), PeakMemWords: r.PeakMemWords + o.PeakMemWords,
	}
}

// Sub returns r − o, field by field and category by category.
func (r Reading) Sub(o Reading) Reading {
	return Reading{
		Bulk: r.Bulk - o.Bulk, Elapsed: r.Elapsed - o.Elapsed, Hidden: r.Hidden - o.Hidden,
		Time: merge(r.Time, o.Time, minus), Words: merge(r.Words, o.Words, minus),
		Msgs: merge(r.Msgs, o.Msgs, minus), PeakMemWords: r.PeakMemWords - o.PeakMemWords,
	}
}

// Max returns the larger of r and o, field by field and category by
// category. Only a category whose maximum is positive keeps a key, so the
// maximum of the ranks' readings has the same keys however they are
// grouped into processes.
func (r Reading) Max(o Reading) Reading {
	return Reading{
		Bulk: max(r.Bulk, o.Bulk), Elapsed: max(r.Elapsed, o.Elapsed), Hidden: max(r.Hidden, o.Hidden),
		Time: positive(merge(r.Time, o.Time, larger)), Words: positive(merge(r.Words, o.Words, larger)),
		Msgs: positive(merge(r.Msgs, o.Msgs, larger)), PeakMemWords: max(r.PeakMemWords, o.PeakMemWords),
	}
}

func plus[V int64 | float64](x, y V) V   { return x + y }
func minus[V int64 | float64](x, y V) V  { return x - y }
func larger[V int64 | float64](x, y V) V { return max(x, y) }

// merge returns a new map holding f(a[k], b[k]) for every key of a or b; a
// key one of them lacks reads 0 there.
func merge[V int64 | float64](a, b map[Category]V, f func(x, y V) V) map[Category]V {
	out := make(map[Category]V, len(a))
	for k, v := range a {
		out[k] = f(v, b[k])
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out[k] = f(0, v)
		}
	}
	return out
}

// positive drops m's keys whose value is not positive, and returns m.
func positive[V int64 | float64](m map[Category]V) map[Category]V {
	maps.DeleteFunc(m, func(_ Category, v V) bool { return v <= 0 })
	return m
}

// Max returns the maximum over the hosted ranks of what read reads off each
// rank's ledger: per field and per category, the paper's per-process
// maximum (read it only after Run returns).
func (c *Cluster) Max(read func(*Ledger) Reading) Reading {
	var out Reading
	for _, cm := range c.comms {
		out = out.Max(read(cm.ledger))
	}
	return out
}

// Sum returns the sum over the hosted ranks of what read reads off each
// rank's ledger: the total volume, as opposed to the per-rank maximum that
// bounds bulk-synchronous runtime — §IV-A-8's distinction between total and
// max edgecut.
func (c *Cluster) Sum(read func(*Ledger) Reading) Reading {
	var out Reading
	for _, cm := range c.comms {
		out = out.Add(read(cm.ledger))
	}
	return out
}
