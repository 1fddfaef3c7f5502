package comm

import "fmt"

// PeerError is the typed failure the fabric raises when a peer rank dies,
// deadlocks, or announces its own failure: instead of an indefinite hang
// (or an anonymous EOF panic), every blocked operation converts into an
// error naming the rank that broke and why.
//
// The Transport interface has no error returns — collectives are written
// panic-on-failure so the happy path stays allocation-free — so a
// transport panics with a *PeerError value. Cluster.Run recovers it,
// broadcasts an abort carrying the root cause, and returns it.
type PeerError struct {
	// Rank is the local rank that observed the failure.
	Rank int
	// Peer is the rank the failure was observed on.
	Peer int
	// Op names the blocked operation: "send", "recv", "barrier".
	Op string
	// Aborted is true when the peer announced its own failure with an
	// abort frame before exiting; Reason then carries the peer's root
	// cause, so survivors report why the world died instead of a cascade
	// of connection-loss errors.
	Aborted bool
	// Reason is the abort reason broadcast by the failing peer.
	Reason string
	// Err is the underlying transport error (connection loss, timeout);
	// nil for aborts.
	Err error
}

// Error implements error.
func (e *PeerError) Error() string {
	if e.Aborted {
		return fmt.Sprintf("comm: rank %d %s: peer rank %d aborted: %s", e.Rank, e.Op, e.Peer, e.Reason)
	}
	return fmt.Sprintf("comm: rank %d %s: peer rank %d failed: %v", e.Rank, e.Op, e.Peer, e.Err)
}

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

// AsPeerError extracts a *PeerError from a recovered panic value. The
// fabric panics with the typed value itself, so Cluster.Run can tell a
// peer failure (restartable: resume from checkpoint) from any other panic.
func AsPeerError(v any) (*PeerError, bool) {
	pe, ok := v.(*PeerError)
	return pe, ok
}
