package comm

import (
	"fmt"
	"sync"
)

// Transport is the physical fabric beneath a Comm: it moves payloads
// between ranks and synchronizes them, nothing more. Model-time charging,
// ledgers, buffer pooling, and the collective algorithms all live above it
// in Comm/Group, so the same trainer code runs bit-identically over any
// implementation.
//
// Two implementations ship with the package:
//
//   - the channel fabric (NewCluster): P goroutines exchanging payload
//     clones, pooled in the receiver's arena, through buffered channels —
//     the simulated α–β testbed every test and benchmark uses, and
//   - the TCP fabric (DialTCP): length-prefixed frames over persistent
//     per-peer connections, rendezvous through a coordinator listener —
//     one OS process per rank (cagnet-train -spawn) or every rank in this one
//     (LocalTCPComms), with wall-clock timing.
//
// Either way a Cluster hosts the endpoints this process runs and launches
// their ranks; FaultTransport wraps any endpoint with scripted failures.
//
// Contract: one goroutine (the rank's) drives an endpoint. Send must be
// safe to call before the matching Recv (it must not rendezvous-block —
// collectives send eagerly and rely on at least mailboxDepth messages of
// buffering per (src, dst) pair), and messages between a (src, dst) pair
// arrive in order. Barrier must synchronize all ranks. Close releases
// sockets and goroutines; the channel fabric has nothing to release.
//
// Failure: the interface has no error returns. An endpoint whose peer is
// gone panics with a *PeerError out of the blocked Send, Recv or Barrier,
// and an endpoint that can tell its peers why it is leaving implements
// Abort(reason) (see aborter): every peer's blocked and future operations
// then panic with a *PeerError carrying that reason. Both fabrics do;
// Cluster.Run is the caller.
//
// Buffer lifetime: the payload handed to Recv's caller is valid until its
// Comm.Release or the next Comm.Recycle (which Comm.EpochDone runs) and not
// after — or for good once Comm.Keep has taken it. Both fabrics hand out
// buffers of the receiver's arena — the channel fabric clones into it, the
// TCP fabric decodes into it — so every payload a rank reads is its own
// arena's, which Release and Keep reach through the optional recvArena
// method (see arenaHolder) and Recycle returns between its two barriers
// through the optional EpochRecycle method (see epochRecycler); a wrapping
// transport must forward both. A caller that never releases or recycles
// keeps its payloads valid indefinitely.
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

// chanFabric is the channel fabric the P inprocTransport endpoints of a
// NewCluster share: a buffered mailbox per (src, dst) pair, one counting
// barrier, and the abort latch that wakes every blocked endpoint.
type chanFabric struct {
	mailbox [][]chan Payload // mailbox[src][dst]
	arenas  []*recvArena     // arenas[dst]: dst's receive arena, which senders clone into
	barrier *centralBarrier

	abortOnce sync.Once
	abortCh   chan struct{} // closed by the first Abort
	abortRank int
	abortMsg  string
}

func newChanFabric(p int) *chanFabric {
	f := &chanFabric{barrier: newCentralBarrier(p), abortCh: make(chan struct{})}
	f.mailbox = make([][]chan Payload, p)
	f.arenas = make([]*recvArena, p)
	for i := range f.mailbox {
		f.arenas[i] = newRecvArena(p)
		f.mailbox[i] = make([]chan Payload, p)
		for j := range f.mailbox[i] {
			f.mailbox[i][j] = make(chan Payload, mailboxDepth)
		}
	}
	return f
}

// inprocTransport is one rank's endpoint on a chanFabric. Sends deep-copy
// into the receiver's arena, so a received payload is the receiver's to
// release, and stays valid until it does or Recycle recycles the arena
// (EpochRecycle) — the same ownership the TCP transport provides with its
// receive arena. recvd[s] counts the payloads received from s this round:
// what this rank's next send to s tells s's arena it knows (recvArena).
type inprocTransport struct {
	fabric *chanFabric
	rank   int
	recvd  []int
}

// endpoint returns rank's endpoint on the fabric.
func (f *chanFabric) endpoint(rank int) *inprocTransport {
	return &inprocTransport{fabric: f, rank: rank, recvd: make([]int, len(f.mailbox))}
}

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return len(t.fabric.mailbox) }

// Send blocks only when dst's mailbox is full, and then wakes on Abort.
func (t *inprocTransport) Send(dst int, p Payload) {
	into := t.fabric.arenas[dst].from[t.rank]
	into.promote(t.recvd[dst])
	clone := Payload{Floats: into.cloneFloats(p.Floats), Ints: into.cloneInts(p.Ints)}
	t.recvArena().from[dst].noteSend()
	select {
	case t.fabric.mailbox[t.rank][dst] <- clone:
	case <-t.fabric.abortCh:
		panic(t.aborted("send"))
	}
}

// Recv takes a payload already delivered before it honors an abort, like
// the TCP endpoint: what a failing peer sent before it failed still counts.
func (t *inprocTransport) Recv(src int) Payload {
	mb := t.fabric.mailbox[src][t.rank]
	var p Payload
	select {
	case p = <-mb:
	default:
		select {
		case p = <-mb:
		case <-t.fabric.abortCh:
			panic(t.aborted("recv"))
		}
	}
	t.recvd[src]++
	return p
}

func (t *inprocTransport) Barrier() {
	if !t.fabric.barrier.await() {
		panic(t.aborted("barrier"))
	}
}

func (t *inprocTransport) Close() error { return nil }

// EpochRecycle returns the payloads this rank received to its arena and
// starts a new round of counts; see epochRecycler.
func (t *inprocTransport) EpochRecycle() {
	t.recvArena().recycle()
	clear(t.recvd)
}

func (t *inprocTransport) recvArena() *recvArena { return t.fabric.arenas[t.rank] }

// Abort latches the fabric's first abort and wakes every endpoint blocked
// in Send, Recv or Barrier; see aborter.
func (t *inprocTransport) Abort(reason string) {
	f := t.fabric
	f.abortOnce.Do(func() {
		f.abortRank, f.abortMsg = t.rank, reason
		close(f.abortCh)
		f.barrier.abort()
	})
}

// aborted builds the *PeerError an operation woken by Abort panics with.
func (t *inprocTransport) aborted(op string) *PeerError {
	return &PeerError{Rank: t.rank, Peer: t.fabric.abortRank, Op: op, Aborted: true, Reason: t.fabric.abortMsg}
}

// NewTransportComm wraps a Transport endpoint in a Comm with its own
// ledger and payload-buffer pool, ready for Group collectives. The cost
// constants drive the same α–β model ledger on every fabric, so a run over
// real sockets still reports its modeled epoch time next to the measured
// one.
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
