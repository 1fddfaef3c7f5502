package comm

import "fmt"

// Transport is the physical fabric beneath a Comm: it moves payloads
// between ranks and synchronizes them, nothing more. Model-time charging,
// ledgers, buffer pooling, and the collective algorithms all live above it
// in Comm/Group, so the same trainer code runs bit-identically over any
// implementation.
//
// Two implementations ship with the package:
//
//   - the in-process fabric (Cluster): P goroutines exchanging pooled
//     payload clones through buffered channels — the simulated α–β testbed
//     every test and benchmark uses, and
//   - the TCP fabric (DialTCP): one OS process per rank, length-prefixed
//     frames over persistent per-peer connections, rendezvous through a
//     coordinator listener — the deployable path with wall-clock timing.
//
// Contract: one goroutine (the rank's) drives an endpoint. Send must be
// safe to call before the matching Recv (it must not rendezvous-block —
// collectives send eagerly and rely on at least mailboxDepth messages of
// buffering per (src, dst) pair), and messages between a (src, dst) pair
// arrive in order. Barrier must synchronize all ranks. Close releases
// sockets and goroutines; the in-process fabric has nothing to release.
//
// Buffer lifetime: the payload handed to Recv's caller is valid until the
// next Comm.EpochDone and not after. Both fabrics hand out pooled buffers
// — the in-process fabric clones through the cluster's bufPool, the TCP
// fabric decodes into its rank's receive arena — and EpochDone recycles
// them between its two barriers: the cluster pool directly, a transport's
// own arena through the optional EpochRecycle method (see epochRecycler),
// which a wrapping transport must forward. A caller that never invokes
// EpochDone never recycles, and its payloads stay valid indefinitely.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send transmits p to dst. The caller keeps ownership of p's backing
	// arrays: the transport copies (or serializes) before returning.
	Send(dst int, p Payload)
	// Recv blocks for the next payload from src.
	Recv(src int) Payload
	// Barrier blocks until every rank has entered the barrier.
	Barrier()
	// Close tears the fabric down. Only the rank that is done with the
	// transport calls it; calling twice is safe.
	Close() error
}

// inprocTransport is one rank's endpoint on a Cluster's channel fabric.
// Sends deep-copy through the cluster-wide buffer pool, so received
// payloads stay valid until EpochDone recycles the pool — the same
// lifetime the TCP transport provides with its per-rank receive arena.
type inprocTransport struct {
	cluster *Cluster
	rank    int
}

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return t.cluster.p }

func (t *inprocTransport) Send(dst int, p Payload) {
	clone := Payload{
		Floats: t.cluster.pool.cloneFloats(p.Floats),
		Ints:   t.cluster.pool.cloneInts(p.Ints),
	}
	t.cluster.mailbox[t.rank][dst] <- clone
}

func (t *inprocTransport) Recv(src int) Payload {
	return <-t.cluster.mailbox[src][t.rank]
}

func (t *inprocTransport) Barrier() { t.cluster.barrier.await() }

func (t *inprocTransport) Close() error { return nil }

// NewTransportComm wraps a Transport endpoint in a Comm with its own
// ledger and payload-buffer pool, ready for Group collectives. The cost
// constants drive the same α–β model ledger the in-process fabric keeps,
// so a multi-process run still reports its modeled epoch time next to the
// measured one.
//
// The Comm owns the pool privately (unlike Cluster ranks, which share
// one), so EpochDone recycles it on every rank.
func NewTransportComm(tr Transport, cost CostParams) *Comm {
	if tr.Rank() < 0 || tr.Rank() >= tr.Size() {
		panic(fmt.Sprintf("comm: transport rank %d out of range for size %d", tr.Rank(), tr.Size()))
	}
	return &Comm{
		tr:     tr,
		rank:   tr.Rank(),
		size:   tr.Size(),
		cost:   cost,
		pool:   newBufPool(),
		ledger: newLedger(),
	}
}
