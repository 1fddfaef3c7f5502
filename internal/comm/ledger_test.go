package comm

// Test-only ledger helpers: nothing outside this package's tests clears a
// ledger mid-run.

// Reset clears all accumulated counts.
func (l *Ledger) Reset() {
	for k := range l.ModelTime {
		delete(l.ModelTime, k)
	}
	for k := range l.ModelWords {
		delete(l.ModelWords, k)
	}
	for k := range l.ModelMsgs {
		delete(l.ModelMsgs, k)
	}
	l.PhysWordsSent = 0
	l.PhysMsgsSent = 0
	l.PhysWordsRecv = 0
	l.PhysMsgsRecv = 0
	l.PeakMemWords = 0
	l.bulk = 0
	l.clock = 0
	l.netBusy = 0
	l.hidden = 0
	l.compTime = 0
}

// ResetLedgers clears all rank ledgers (e.g., to discard a warmup epoch).
func (c *Cluster) ResetLedgers() {
	for _, cm := range c.comms {
		cm.ledger.Reset()
	}
}
