package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file implements the TCP Transport: each rank is its own OS process,
// payloads move as length-prefixed frames over persistent per-peer
// connections, and ranks find each other through a coordinator listener.
//
// Rendezvous protocol:
//
//  1. Every rank opens a data listener on an ephemeral port, dials the
//     coordinator (retrying while it comes up), and sends a hello frame
//     {rank, generation, dataAddr}.
//  2. The coordinator collects all world hellos, then answers every rank
//     with the full rank→address table and closes the rendezvous
//     connections. It is pure bootstrap: no payload ever routes through it.
//     Hellos carrying a stale generation (a straggler process from a world
//     the supervisor already replaced) are dropped, not answered, so a
//     restarted world never mixes frames with the one it replaced.
//  3. Rank i dials the data listener of every j < i and introduces itself
//     with an identify frame; conversely it accepts one connection from
//     every j > i. The result is one duplex TCP connection per rank pair.
//
// Each connection gets a reader goroutine that demultiplexes incoming
// frames into a per-peer payload inbox (buffered, like the in-process
// mailboxes) and a per-peer barrier-token channel. Every frame is written
// under a per-peer mutex — a data frame as one writev, every other frame
// as a single write — so frames never interleave and the heartbeat
// goroutine can share connections with the collective path. A rank that
// dies mid-frame leaves a truncated frame, which the peer's reader
// reports as an unexpected EOF (a *PeerError), never as data. Barrier is
// a dissemination barrier over the same connections: ⌈lg P⌉ rounds, round
// k sending a token to (rank+2^k) mod P and waiting for one from
// (rank−2^k) mod P.
//
// A data frame's body is the memory image of its words: on a little-endian
// host with 64-bit int (DialTCPOpts refuses any other) a []float64 or
// []int viewed as bytes already is the wire encoding. Send therefore
// hands the kernel the header and the caller's two slices in one writev,
// and the reader, after taking the header from its bufio buffer, reads
// each side with io.ReadFull straight into a buffer drawn from the rank's
// receive arena (recvArena: one bufPool per sending peer), which
// Comm.Release takes one payload back to at its last reader and
// Comm.Recycle recycles whole. Each side makes one kernel copy of the words and no per-word
// pass; only what the bufio buffer already holds, or a tail shorter than
// it, is copied once more. Steady-state epochs allocate no payload memory,
// and a received payload stays valid until Release or Recycle.
//
// A released buffer may take a later frame of the same round at once: the
// rank released it because it reads it no more. The argument below covers
// the buffers still checked out at the round's end.
//
// Why no round-N+1 frame (a round: the traffic between two Recycles) can
// land in a buffer still referenced from round N, or be counted in round
// N's acks: collectives are SPMD, so every frame a peer sent this rank
// during round N was consumed by a matching Recv — and so fully read —
// before this rank entered Recycle. The rank recycles its own arena first
// and only then enters Recycle's one barrier; a peer leaves that barrier
// only after this rank entered it, and only then sends its first round-N+1
// frame. Every round-N+1 frame is therefore read after the recycle, into
// a buffer the recycle has already handed back, against counts the
// recycle has already cleared.
//
// Failure model: a heartbeat goroutine sends a 'V' frame to every peer at
// HeartbeatInterval, and every blocked Recv/Barrier enforces
// ProgressTimeout against the peer's last-heard clock, so a dead, killed,
// or partitioned peer converts an indefinite hang into a prompt
// *PeerError panic naming the rank. (A peer that is alive but wedged
// inside the training loop still heartbeats: the timeout detects silence,
// not stuckness.) A rank that fails for any reason broadcasts an 'A'
// abort frame with its root cause before exiting, so survivors fail fast
// with "rank N aborted: <reason>" instead of a cascade of EOF panics.
//
// Frames (all integers little-endian):
//
//	'D' u32 nFloats, u32 nInts, u32 acked, then nFloats float64 bit
//	    patterns and nInts int64 values — one Payload, bit-exact. nFloats
//	    + nInts may not exceed maxFrameWords. acked is the number of data
//	    frames the sender had received from the receiver since the last
//	    Recycle: the receiver's arena reuses for the sender's frames only
//	    the buffers it had released before sending those (recvArena).
//	'B' barrier token, no body.
//	'V' heartbeat, no body — refreshes the peer's last-heard clock.
//	'A' u16 reasonLen, reason — the sending rank is failing; reason is
//	    its root cause.
//	'I' u32 rank, u32 generation — mesh handshake, first frame on a
//	    dialed data conn.
//	'H' u32 rank, u32 generation, u16 addrLen, addr — hello to the
//	    coordinator.
//	'P' u32 world, then world × (u16 addrLen, addr) — the address table.
const (
	frameData      = 'D'
	frameBarrier   = 'B'
	frameHeartbeat = 'V'
	frameAbort     = 'A'
	frameIdentify  = 'I'
	frameHello     = 'H'
	framePeers     = 'P'
)

// maxFrameWords bounds the payload (floats plus ints) of one data frame:
// 512 MiB of words, over a hundred times the largest block the trainers
// exchange on this repo's datasets. The header's u32 counts could otherwise
// demand 64 GiB from a receiver on the strength of nine corrupt bytes, and
// a longer payload would silently truncate on send.
const maxFrameWords = 1 << 26

// frameChunk is the size of each reader's bufio buffer. A body read that
// finds the buffer empty with at least this much to go bypasses it, so
// only a body's first buffered bytes and its short tail are copied twice.
const frameChunk = 256 << 10

// wireHostErr is nil when this host may run the TCP transport; see
// checkWireHost.
var wireHostErr = checkWireHost(binary.NativeEndian.Uint16([]byte{1, 0}) == 1, strconv.IntSize)

// checkWireHost reports whether a host whose byte order and int width are
// given keeps float64 and int words in memory exactly as a data frame's
// body carries them: little-endian and 64 bits wide. Any other host is
// refused by name rather than served by a second, per-word codec; the
// in-process fabric still runs there.
func checkWireHost(littleEndian bool, intBits int) error {
	if littleEndian && intBits == 64 {
		return nil
	}
	return fmt.Errorf("comm: the TCP transport needs a little-endian host with 64-bit int; GOARCH=%s (little-endian %t, %d-bit int) is not one", runtime.GOARCH, littleEndian, intBits)
}

// Bodiless frames, shared by every transport.
var (
	barrierFrame   = []byte{frameBarrier}
	heartbeatFrame = []byte{frameHeartbeat}
)

// tcpInboxDepth bounds buffered received payloads per peer before the
// reader goroutine stops draining the socket and TCP backpressure takes
// over. Must be at least mailboxDepth, the buffering the collectives'
// eager-send patterns assume.
const tcpInboxDepth = 64

// Default TCPOptions values; see TCPOptions for the semantics.
const (
	defaultRendezvousTimeout = 30 * time.Second
	defaultHeartbeatInterval = 500 * time.Millisecond
	defaultProgressTimeout   = 30 * time.Second
)

// TCPOptions configures the fault-tolerance knobs of a TCP fabric
// endpoint (and, for the rendezvous fields, the coordinator). The zero
// value means "all defaults"; negative durations disable the mechanism.
type TCPOptions struct {
	// RendezvousTimeout bounds how long DialTCPOpts keeps retrying the
	// coordinator and how long the mesh handshake may take. Large worlds
	// on slow hosts need more than the 30 s default.
	RendezvousTimeout time.Duration
	// HeartbeatInterval is the period between heartbeat frames to every
	// peer. 0 means the 500 ms default; negative disables heartbeats
	// (a peer blocked in a long local compute then looks silent, so
	// disable ProgressTimeout too).
	HeartbeatInterval time.Duration
	// ProgressTimeout is how long a blocked Recv or Barrier tolerates
	// total silence from the awaited peer before panicking with a
	// *PeerError. 0 means the 30 s default; negative disables the check
	// (blocked operations then wait forever, as before). It must
	// comfortably exceed HeartbeatInterval.
	ProgressTimeout time.Duration
	// Generation tags every rendezvous frame. A supervisor restarting a
	// crashed world bumps it so stragglers from the previous incarnation
	// are dropped at rendezvous instead of corrupting the new mesh.
	Generation int
}

// withDefaults resolves zero fields to their defaults.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.RendezvousTimeout == 0 {
		o.RendezvousTimeout = defaultRendezvousTimeout
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = defaultHeartbeatInterval
	}
	if o.ProgressTimeout == 0 {
		o.ProgressTimeout = defaultProgressTimeout
	}
	return o
}

// TCPTransport is one rank's endpoint on the TCP fabric. Create it with
// DialTCP or DialTCPOpts; it satisfies Transport. Like every Transport it
// is driven by one goroutine (the rank's): Send, Recv and Barrier share
// the data-frame vector and the watchdog timer without locking.
type TCPTransport struct {
	rank, world int
	opts        TCPOptions
	ln          net.Listener
	conns       []net.Conn      // conns[peer], nil at rank's own slot
	wmu         []sync.Mutex    // wmu[peer] serializes frame writes
	inbox       []chan Payload  // inbox[peer]
	barrierCh   []chan struct{} // barrierCh[peer]
	readErr     []chan error    // readErr[peer], posted once when reader exits
	lastHeard   []atomic.Int64  // lastHeard[peer], UnixNano of last frame
	frame       frameVec        // the data frame Send is writing
	arena       *recvArena      // received payload buffers and their acks
	watchdog    *time.Timer     // ProgressTimeout timer, nil when disabled

	hbStop    chan struct{}
	abortOnce sync.Once
	abortCh   chan struct{} // closed once a peer's abort frame arrives
	abortPeer int
	abortMsg  string
	closeOnce sync.Once
	closeErr  error
}

// Rank returns this endpoint's rank.
func (t *TCPTransport) Rank() int { return t.rank }

// Size returns the world size.
func (t *TCPTransport) Size() int { return t.world }

// Send writes p to dst. The kernel reads p's words in place, and Send
// returns only once writev has copied every byte into the socket: the
// caller may then reuse or recycle p's backing arrays immediately. A
// payload over maxFrameWords is a caller bug and panics before anything
// is written.
func (t *TCPTransport) Send(dst int, p Payload) {
	if err := checkFrameWords(uint64(len(p.Floats)), uint64(len(p.Ints))); err != nil {
		panic(fmt.Sprintf("comm: rank %d sending to rank %d: %v", t.rank, dst, err))
	}
	acked := t.arena.sent(dst)
	t.wmu[dst].Lock()
	err := t.frame.write(t.conns[dst], p, uint32(acked))
	t.wmu[dst].Unlock()
	if err != nil {
		panic(t.failure("send", dst, err))
	}
}

// writeFrame writes one complete bodiless frame under the peer's write
// mutex.
func (t *TCPTransport) writeFrame(dst int, frame []byte) error {
	t.wmu[dst].Lock()
	defer t.wmu[dst].Unlock()
	_, err := t.conns[dst].Write(frame)
	return err
}

func (t *TCPTransport) recvArena() *recvArena { return t.arena }

// failure builds the *PeerError for a failed operation on peer. If some
// rank already broadcast an abort, its root cause wins over the local
// connection error — survivors should all report why the world died, not
// the cascade it caused.
func (t *TCPTransport) failure(op string, peer int, err error) *PeerError {
	select {
	case <-t.abortCh:
		return &PeerError{Rank: t.rank, Peer: t.abortPeer, Op: op, Aborted: true, Reason: t.abortMsg}
	default:
	}
	return &PeerError{Rank: t.rank, Peer: peer, Op: op, Err: err}
}

// raiseAbort latches the first peer abort; every subsequent blocked or
// failing operation reports it.
func (t *TCPTransport) raiseAbort(peer int, reason string) {
	t.abortOnce.Do(func() {
		t.abortPeer = peer
		t.abortMsg = reason
		close(t.abortCh)
	})
}

// Abort best-effort broadcasts an abort frame carrying reason to every
// peer, so they fail fast with this rank's root cause instead of waiting
// out a connection loss or progress timeout. Call it (before Close) when
// the rank is about to exit abnormally. Write errors are ignored: the
// rank is already failing, and a short deadline keeps a wedged peer
// socket from delaying its exit.
func (t *TCPTransport) Abort(reason string) {
	if len(reason) > math.MaxUint16 {
		reason = reason[:math.MaxUint16]
	}
	frame := make([]byte, 3+len(reason))
	frame[0] = frameAbort
	binary.LittleEndian.PutUint16(frame[1:3], uint16(len(reason)))
	copy(frame[3:], reason)
	for peer, c := range t.conns {
		if c == nil {
			continue
		}
		t.wmu[peer].Lock()
		c.SetWriteDeadline(time.Now().Add(2 * time.Second))
		c.Write(frame)
		t.wmu[peer].Unlock()
	}
}

// silence reports how long peer has been quiet.
func (t *TCPTransport) silence(peer int) time.Duration {
	return time.Duration(time.Now().UnixNano() - t.lastHeard[peer].Load())
}

// armWatchdog starts the ProgressTimeout watchdog for one blocked
// operation and returns its channel; pair it with disarmWatchdog. A nil
// channel means the check is disabled, and blocks forever in select, which
// is exactly right. Every blocked operation reuses the transport's one
// timer: a stopped or reset timer never delivers a stale tick.
func (t *TCPTransport) armWatchdog() <-chan time.Time {
	if t.watchdog == nil {
		return nil
	}
	t.watchdog.Reset(t.opts.ProgressTimeout)
	return t.watchdog.C
}

func (t *TCPTransport) disarmWatchdog() {
	if t.watchdog != nil {
		t.watchdog.Stop()
	}
}

// checkProgress runs when the watchdog fires: if the peer has been silent
// for a full ProgressTimeout it returns the error to panic with;
// otherwise it re-arms the timer for the remaining window.
func (t *TCPTransport) checkProgress(op string, peer int) *PeerError {
	quiet := t.silence(peer)
	if quiet >= t.opts.ProgressTimeout {
		return t.failure(op, peer, fmt.Errorf("no frames or heartbeats for %v (progress timeout %v)", quiet.Round(time.Millisecond), t.opts.ProgressTimeout))
	}
	t.watchdog.Reset(t.opts.ProgressTimeout - quiet)
	return nil
}

// Recv blocks for the next payload from src.
func (t *TCPTransport) Recv(src int) Payload {
	p := await(t, t.inbox[src], "recv", src)
	t.arena.received(src)
	return p
}

// Barrier runs a dissemination barrier over the data connections.
func (t *TCPTransport) Barrier() {
	for k := uint(0); 1<<k < t.world; k++ {
		to := (t.rank + 1<<k) % t.world
		from := (t.rank - 1<<k + t.world) % t.world
		if err := t.writeFrame(to, barrierFrame); err != nil {
			panic(t.failure("barrier", to, err))
		}
		await(t, t.barrierCh[from], "barrier", from)
	}
}

// await blocks for the next item the peer's reader goroutine routes to ch
// — a payload for Recv, a token for Barrier — and converts a dead
// connection, a peer's abort or a silent peer into a *PeerError panic.
func await[T any](t *TCPTransport, ch chan T, op string, peer int) T {
	// Drain delivered frames before honoring a read error or an abort:
	// the reader goroutine routes every frame in order and only then
	// posts the error, so a peer that sent its data and exited (normal
	// shutdown skew) must not eat what is already queued behind its EOF.
	select {
	case v := <-ch:
		return v
	default:
	}
	timeout := t.armWatchdog()
	defer t.disarmWatchdog()
	for {
		select {
		case v := <-ch:
			return v
		case err := <-t.readErr[peer]:
			select {
			case v := <-ch:
				t.readErr[peer] <- err // re-post for the next await
				return v
			default:
			}
			panic(t.failure(op, peer, err))
		case <-t.abortCh:
			select {
			case v := <-ch:
				return v
			default:
			}
			panic(t.failure(op, peer, nil))
		case <-timeout:
			if pe := t.checkProgress(op, peer); pe != nil {
				panic(pe)
			}
		}
	}
}

// Close stops the heartbeat goroutine and shuts the listener and every
// peer connection down; reader goroutines exit on their next read. Safe
// to call more than once.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.hbStop)
		if t.ln != nil {
			t.closeErr = t.ln.Close()
		}
		for _, c := range t.conns {
			if c != nil {
				if err := c.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
	})
	return t.closeErr
}

// heartbeatLoop periodically sends a heartbeat frame to every peer so
// their progress watchdogs see this rank as alive even across long local
// compute phases. Write errors are ignored here: the peer's reader
// goroutine is the authority on connection failure.
func (t *TCPTransport) heartbeatLoop() {
	tick := time.NewTicker(t.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.hbStop:
			return
		case <-tick.C:
			for peer, c := range t.conns {
				if c == nil {
					continue
				}
				t.wmu[peer].Lock()
				c.Write(heartbeatFrame)
				t.wmu[peer].Unlock()
			}
		}
	}
}

// readLoop drains one peer connection, routing payload frames to the
// inbox and barrier tokens to the barrier channel, until the connection
// dies (peer exit or Close). Every frame — heartbeats included —
// refreshes the peer's last-heard clock.
func (t *TCPTransport) readLoop(peer int, conn net.Conn) {
	r := bufio.NewReaderSize(conn, frameChunk)
	for {
		typ, err := r.ReadByte()
		if err != nil {
			t.readErr[peer] <- err
			return
		}
		t.lastHeard[peer].Store(time.Now().UnixNano())
		switch typ {
		case frameBarrier:
			t.barrierCh[peer] <- struct{}{}
		case frameHeartbeat:
			// Clock already refreshed; nothing to route.
		case frameAbort:
			reason, err := readString(r)
			if err != nil {
				t.readErr[peer] <- err
				return
			}
			t.raiseAbort(peer, reason)
		case frameData:
			p, err := readDataFrame(r, t.arena, peer)
			if err != nil {
				t.readErr[peer] <- err
				return
			}
			t.inbox[peer] <- p
		default:
			t.readErr[peer] <- fmt.Errorf("unexpected frame type %q", typ)
			return
		}
	}
}

// checkFrameWords enforces maxFrameWords on a data frame's two counts,
// on the way out and on the way in.
func checkFrameWords(nFloats, nInts uint64) error {
	if nFloats+nInts > maxFrameWords {
		return fmt.Errorf("data frame of %d floats + %d ints exceeds maxFrameWords (%d)", nFloats, nInts, maxFrameWords)
	}
	return nil
}

// frameVec is the writev vector of one data frame: the header and the
// payload's two sides. It is kept in the transport, not on Send's stack,
// because net.Buffers.WriteTo makes the vector escape.
type frameVec struct {
	hdr  [13]byte
	iov  [3][]byte
	bufs net.Buffers
}

// write sends p to w as one 'D' frame, the words straight from p's slices,
// with the count of frames acked. The caller has checked the frame size
// and holds the peer's write mutex.
func (v *frameVec) write(w io.Writer, p Payload, acked uint32) error {
	v.hdr[0] = frameData
	binary.LittleEndian.PutUint32(v.hdr[1:5], uint32(len(p.Floats)))
	binary.LittleEndian.PutUint32(v.hdr[5:9], uint32(len(p.Ints)))
	binary.LittleEndian.PutUint32(v.hdr[9:13], acked)
	v.iov = [3][]byte{v.hdr[:], wordBytes(p.Floats), wordBytes(p.Ints)}
	v.bufs = v.iov[:]
	_, err := v.bufs.WriteTo(w)
	return err
}

// readDataFrame reads the rest of a data frame from src (the type byte is
// already consumed) into buffers the arena lands it in. Zero-length sides
// read as nil, preserving Payload nil-ness conventions. The header is
// checked against maxFrameWords before anything is drawn from the arena.
func readDataFrame(r *bufio.Reader, a *recvArena, src int) (Payload, error) {
	hdr, err := r.Peek(12)
	if err != nil {
		return Payload{}, midFrame(err)
	}
	nf := binary.LittleEndian.Uint32(hdr[0:4])
	ni := binary.LittleEndian.Uint32(hdr[4:8])
	acked := binary.LittleEndian.Uint32(hdr[8:12])
	r.Discard(12)
	if err := checkFrameWords(uint64(nf), uint64(ni)); err != nil {
		return Payload{}, err
	}
	p := a.land(src, int(acked), int(nf), int(ni))
	if _, err := io.ReadFull(r, wordBytes(p.Floats)); err != nil {
		return Payload{}, midFrame(err)
	}
	if _, err := io.ReadFull(r, wordBytes(p.Ints)); err != nil {
		return Payload{}, midFrame(err)
	}
	return p, nil
}

// wordBytes views a payload side as the bytes of its memory image, which
// on a host checkWireHost admits is the side's wire encoding.
func wordBytes[W float64 | int](x []W) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*int(unsafe.Sizeof(x[0])))
}

// midFrame converts the clean EOF of a stream that ended inside a frame
// into io.ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeString writes a u16-length-prefixed string.
func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("comm: address %q too long", s)
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// readString reads a u16-length-prefixed string.
func readString(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	buf := make([]byte, binary.LittleEndian.Uint16(n[:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Coordinator is the rendezvous listener: a bootstrap-only service that
// pairs rank ids with data addresses and hands every rank the full table.
// Run one per job — typically in the rank-0 process or the -spawn parent.
type Coordinator struct {
	ln    net.Listener
	world int
	opts  TCPOptions
}

// NewCoordinator listens on addr (e.g. "127.0.0.1:0") for a world-rank
// rendezvous with default options. Serve must be called to run it.
func NewCoordinator(addr string, world int) (*Coordinator, error) {
	return NewCoordinatorOpts(addr, world, TCPOptions{})
}

// NewCoordinatorOpts is NewCoordinator with explicit rendezvous options:
// RendezvousTimeout bounds each member's hello, and Generation selects
// which incarnation of the world this rendezvous admits.
func NewCoordinatorOpts(addr string, world int, opts TCPOptions) (*Coordinator, error) {
	if world <= 0 {
		return nil, fmt.Errorf("comm: coordinator world size must be positive, got %d", world)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln, world: world, opts: opts.withDefaults()}, nil
}

// Addr returns the coordinator's listen address, for handing to workers.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Serve accepts rendezvous connections until every rank has said hello,
// answers each with the rank→address table, and shuts the listener down.
// Hellos from a different generation are dropped (connection closed, rank
// not counted): they are stragglers from a world that no longer exists.
// Serve returns after the table is delivered (or on the first protocol
// error), so run it in its own goroutine when the process also hosts a
// rank.
func (co *Coordinator) Serve() error {
	defer co.ln.Close()
	type member struct {
		conn net.Conn
		addr string
	}
	members := make(map[int]member, co.world)
	defer func() {
		for _, m := range members {
			m.conn.Close()
		}
	}()
	for len(members) < co.world {
		conn, err := co.ln.Accept()
		if err != nil {
			return fmt.Errorf("comm: coordinator accept: %w", err)
		}
		conn.SetDeadline(time.Now().Add(co.opts.RendezvousTimeout))
		r := bufio.NewReader(conn)
		typ, err := r.ReadByte()
		if err != nil || typ != frameHello {
			conn.Close()
			return fmt.Errorf("comm: coordinator: bad hello (type %q, err %v)", typ, err)
		}
		var rk [8]byte
		if _, err := io.ReadFull(r, rk[:]); err != nil {
			conn.Close()
			return fmt.Errorf("comm: coordinator: short hello: %w", err)
		}
		rank := int(int32(binary.LittleEndian.Uint32(rk[0:4])))
		gen := int(int32(binary.LittleEndian.Uint32(rk[4:8])))
		addr, err := readString(r)
		if err != nil {
			conn.Close()
			return fmt.Errorf("comm: coordinator: bad hello address: %w", err)
		}
		if gen != co.opts.Generation {
			conn.Close()
			continue
		}
		if rank < 0 || rank >= co.world {
			conn.Close()
			return fmt.Errorf("comm: coordinator: hello rank %d out of range for world %d", rank, co.world)
		}
		if _, dup := members[rank]; dup {
			conn.Close()
			return fmt.Errorf("comm: coordinator: duplicate hello for rank %d", rank)
		}
		members[rank] = member{conn: conn, addr: addr}
	}
	for rank := 0; rank < co.world; rank++ {
		m := members[rank]
		w := bufio.NewWriter(m.conn)
		var hdr [5]byte
		hdr[0] = framePeers
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(co.world))
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("comm: coordinator: answering rank %d: %w", rank, err)
		}
		for peer := 0; peer < co.world; peer++ {
			if err := writeString(w, members[peer].addr); err != nil {
				return fmt.Errorf("comm: coordinator: answering rank %d: %w", rank, err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("comm: coordinator: answering rank %d: %w", rank, err)
		}
	}
	return nil
}

// DialTCP joins a TCP fabric as one rank with default options. See
// DialTCPOpts.
func DialTCP(coordAddr string, rank, world int) (*TCPTransport, error) {
	return DialTCPOpts(coordAddr, rank, world, TCPOptions{})
}

// DialTCPOpts joins a TCP fabric as one rank: it opens a data listener,
// runs the rendezvous against the coordinator at coordAddr (retrying with
// backoff while the coordinator comes up), builds the full connection
// mesh, and starts the per-peer reader goroutines plus the heartbeat
// sender. The returned transport is ready for NewTransportComm.
//
// world == 0 means "adopt whatever world size the coordinator announces":
// the coordinator is then the membership authority, which is what lets an
// elastic supervisor shrink a crashed world — survivors rejoin with the
// world size the new generation's coordinator negotiated, not the one
// they were originally launched with. Check Size() after dialing.
//
// A host checkWireHost refuses gets that error before anything listens.
func DialTCPOpts(coordAddr string, rank, world int, opts TCPOptions) (*TCPTransport, error) {
	if wireHostErr != nil {
		return nil, wireHostErr
	}
	if world < 0 || rank < 0 || (world > 0 && rank >= world) {
		return nil, fmt.Errorf("comm: rank %d out of range for world %d", rank, world)
	}
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d data listen: %w", rank, err)
	}
	t := &TCPTransport{
		rank:    rank,
		world:   world,
		opts:    opts.withDefaults(),
		ln:      ln,
		hbStop:  make(chan struct{}),
		abortCh: make(chan struct{}),
	}

	// Per-peer state is sized after the rendezvous: when world == 0 the
	// peers frame is what tells us how many ranks the fabric has.
	peers, err := t.rendezvous(coordAddr)
	if err != nil {
		t.Close()
		return nil, err
	}
	world = t.world
	t.conns = make([]net.Conn, world)
	t.wmu = make([]sync.Mutex, world)
	t.inbox = make([]chan Payload, world)
	t.barrierCh = make([]chan struct{}, world)
	t.readErr = make([]chan error, world)
	t.lastHeard = make([]atomic.Int64, world)
	t.arena = newRecvArena(world)
	if t.opts.ProgressTimeout > 0 {
		t.watchdog = time.NewTimer(t.opts.ProgressTimeout)
		t.watchdog.Stop()
	}
	for i := 0; i < world; i++ {
		if i == rank {
			continue
		}
		t.inbox[i] = make(chan Payload, tcpInboxDepth)
		t.barrierCh[i] = make(chan struct{}, 4)
		t.readErr[i] = make(chan error, 1)
	}

	if err := t.buildMesh(peers); err != nil {
		t.Close()
		return nil, err
	}
	ln.Close() // mesh complete; no more inbound dials
	t.ln = nil
	now := time.Now().UnixNano()
	for i, conn := range t.conns {
		if conn != nil {
			t.lastHeard[i].Store(now)
			go t.readLoop(i, conn)
		}
	}
	if t.opts.HeartbeatInterval > 0 && world > 1 {
		go t.heartbeatLoop()
	}
	return t, nil
}

// rendezvous dials the coordinator, announces this rank's data address,
// and returns the full rank→address table.
func (t *TCPTransport) rendezvous(coordAddr string) ([]string, error) {
	deadline := time.Now().Add(t.opts.RendezvousTimeout)
	var conn net.Conn
	var err error
	for backoff := 10 * time.Millisecond; ; backoff *= 2 {
		conn, err = net.DialTimeout("tcp", coordAddr, t.opts.RendezvousTimeout)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("comm: rank %d: coordinator %s unreachable: %w", t.rank, coordAddr, err)
		}
		if backoff > time.Second {
			backoff = time.Second
		}
		time.Sleep(backoff)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	// Advertise host as seen by the coordinator connection (works on
	// loopback and LAN alike), port from the data listener.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d: local address: %w", t.rank, err)
	}
	_, port, err := net.SplitHostPort(t.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d: data address: %w", t.rank, err)
	}
	dataAddr := net.JoinHostPort(host, port)

	w := bufio.NewWriter(conn)
	var hdr [9]byte
	hdr[0] = frameHello
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(t.rank))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(t.opts.Generation))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("comm: rank %d hello: %w", t.rank, err)
	}
	if err := writeString(w, dataAddr); err != nil {
		return nil, fmt.Errorf("comm: rank %d hello: %w", t.rank, err)
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("comm: rank %d hello: %w", t.rank, err)
	}

	r := bufio.NewReader(conn)
	typ, err := r.ReadByte()
	if err != nil || typ != framePeers {
		return nil, fmt.Errorf("comm: rank %d: bad peers frame (type %q, err %v) — stale generation or dead coordinator", t.rank, typ, err)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("comm: rank %d: short peers frame: %w", t.rank, err)
	}
	got := int(binary.LittleEndian.Uint32(cnt[:]))
	switch {
	case t.world == 0 && got > 0:
		// Membership negotiation: adopt the coordinator's world size.
		if t.rank >= got {
			return nil, fmt.Errorf("comm: rank %d out of range for negotiated world %d", t.rank, got)
		}
		t.world = got
	case got != t.world:
		return nil, fmt.Errorf("comm: rank %d: coordinator world %d, want %d", t.rank, got, t.world)
	}
	if t.world <= 0 {
		return nil, fmt.Errorf("comm: rank %d: coordinator announced world %d", t.rank, got)
	}
	peers := make([]string, t.world)
	for i := range peers {
		if peers[i], err = readString(r); err != nil {
			return nil, fmt.Errorf("comm: rank %d: peers table: %w", t.rank, err)
		}
	}
	return peers, nil
}

// buildMesh establishes one connection per peer: dial every lower rank
// (introducing ourselves with an identify frame), accept from every
// higher one. Identify frames from a different generation are dropped
// without counting toward the mesh, mirroring the coordinator.
func (t *TCPTransport) buildMesh(peers []string) error {
	deadline := time.Now().Add(t.opts.RendezvousTimeout)
	for j := 0; j < t.rank; j++ {
		// Retry with bounded backoff, like the coordinator dial: a peer
		// that has rendezvoused but whose accept loop is slow to start
		// under load is a transient condition, not a dead rank.
		var conn net.Conn
		var err error
		for backoff := 10 * time.Millisecond; ; backoff *= 2 {
			conn, err = net.DialTimeout("tcp", peers[j], time.Until(deadline))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("comm: rank %d dialing rank %d at %s: %w", t.rank, j, peers[j], err)
			}
			if backoff > time.Second {
				backoff = time.Second
			}
			time.Sleep(backoff)
		}
		var hdr [9]byte
		hdr[0] = frameIdentify
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(t.rank))
		binary.LittleEndian.PutUint32(hdr[5:9], uint32(t.opts.Generation))
		if _, err := conn.Write(hdr[:]); err != nil {
			conn.Close()
			return fmt.Errorf("comm: rank %d identify to rank %d: %w", t.rank, j, err)
		}
		t.conns[j] = conn
	}
	for accepted := 0; accepted < t.world-1-t.rank; {
		if dl, ok := t.ln.(*net.TCPListener); ok {
			dl.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("comm: rank %d accepting mesh peer: %w", t.rank, err)
		}
		conn.SetReadDeadline(deadline)
		var hdr [9]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil || hdr[0] != frameIdentify {
			conn.Close()
			return fmt.Errorf("comm: rank %d: bad identify frame (type %q, err %v)", t.rank, hdr[0], err)
		}
		peer := int(int32(binary.LittleEndian.Uint32(hdr[1:5])))
		gen := int(int32(binary.LittleEndian.Uint32(hdr[5:9])))
		if gen != t.opts.Generation {
			conn.Close()
			continue
		}
		if peer <= t.rank || peer >= t.world {
			conn.Close()
			return fmt.Errorf("comm: rank %d: identify from unexpected rank %d", t.rank, peer)
		}
		if t.conns[peer] != nil {
			conn.Close()
			return fmt.Errorf("comm: rank %d: duplicate connection from rank %d", t.rank, peer)
		}
		conn.SetReadDeadline(time.Time{})
		t.conns[peer] = conn
		accepted++
	}
	return nil
}
