package comm

import "time"

// Meter collects per-collective wire samples: how many physical messages
// and words a rank moved inside one collective call, and how long the call
// took on the wall clock. Over a real transport the samples are the raw
// material for a least-squares α/β fit (costmodel.FitAlphaBeta), closing
// the loop between the paper's analytic model and measured behavior.
//
// A sample's message/word counts are the rank's combined sent+received
// deltas — a NIC-load proxy, not a directional count — and its wall time
// includes any wait for peers to arrive at the collective, so the fitted
// α absorbs synchronization skew. That makes the fit a diagnostic of the
// fabric the trainer actually experienced, not a clean link benchmark;
// the measured-vs-modeled report says so.
//
// One collective call is one sample: an AllReduce, whose recursive-doubling
// schedule replaced a reduce followed by a broadcast, is one sample, not two.
//
// Metering is off by default and stays off for the channel fabric's
// zero-alloc steady state; EnableMetering turns it on for one Comm.
type Meter struct {
	msgs  []float64
	words []float64
	secs  []float64
}

// Len returns the number of samples recorded.
func (m *Meter) Len() int { return len(m.secs) }

// Samples returns the parallel sample vectors (messages, words, wall
// seconds per collective call), aliasing the meter's storage.
func (m *Meter) Samples() (msgs, words, secs []float64) {
	return m.msgs, m.words, m.secs
}

// TotalWords returns the summed sent+received words across samples.
func (m *Meter) TotalWords() float64 {
	var s float64
	for _, v := range m.words {
		s += v
	}
	return s
}

// EnableMetering attaches a fresh Meter to the Comm and returns it. Every
// subsequent collective call that moves data appends one sample. Not for
// use on the allocation-pinned in-process benchmark paths: the sample
// vectors grow.
func (c *Comm) EnableMetering() *Meter {
	c.meter = &Meter{}
	return c.meter
}

// meterMark snapshots the rank's physical counters and the wall clock at
// collective entry.
type meterMark struct {
	msgs  int64
	words int64
	start time.Time
}

// meterStart begins a sample; a zero mark (metering off) makes meterDone a
// no-op.
func (c *Comm) meterStart() meterMark {
	if c.meter == nil {
		return meterMark{}
	}
	return meterMark{
		msgs:  c.ledger.PhysMsgsSent + c.ledger.PhysMsgsRecv,
		words: c.ledger.PhysWordsSent + c.ledger.PhysWordsRecv,
		start: time.Now(),
	}
}

// meterDone closes a sample. Calls that moved nothing (single-member
// groups, all-empty exchanges) record no sample: a zero row carries no
// information for the fit.
func (c *Comm) meterDone(mk meterMark) {
	if c.meter == nil {
		return
	}
	dm := c.ledger.PhysMsgsSent + c.ledger.PhysMsgsRecv - mk.msgs
	dw := c.ledger.PhysWordsSent + c.ledger.PhysWordsRecv - mk.words
	if dm == 0 && dw == 0 {
		return
	}
	m := c.meter
	m.msgs = append(m.msgs, float64(dm))
	m.words = append(m.words, float64(dw))
	m.secs = append(m.secs, time.Since(mk.start).Seconds())
}
