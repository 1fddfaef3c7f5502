package comm

// Test-only ledger helpers: nothing outside this package's tests clears a
// ledger mid-run.

// Reset clears all accumulated counts: it zeroes the whole struct, so no
// field can be missed, and keeps the category maps, cleared.
func (l *Ledger) Reset() {
	clear(l.ModelTime)
	clear(l.ModelWords)
	clear(l.ModelMsgs)
	*l = Ledger{ModelTime: l.ModelTime, ModelWords: l.ModelWords, ModelMsgs: l.ModelMsgs}
}

// ResetLedgers clears all rank ledgers (e.g., to discard a warmup epoch).
func (c *Cluster) ResetLedgers() {
	for _, cm := range c.comms {
		cm.ledger.Reset()
	}
}
