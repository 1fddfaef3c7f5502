// Package comm implements a distributed-memory runtime: the ranks a process
// hosts run as goroutines (Cluster) and exchange messages over a Transport —
// channels in-process, or TCP sockets within or across processes.
//
// The package substitutes for the paper's Summit + NCCL testbed. It keeps
// two ledgers per rank:
//
//   - a *physical* ledger counting the words actually moved through the
//     fabric (useful for debugging the algorithms), and
//   - a *model* ledger charging each operation its α–β cost exactly as the
//     paper's analysis does (§III-A): a message of n words costs α + βn,
//     collectives cost their Chan-et-al. bounds. Model time, words, and
//     message counts are broken down by category (sparse comm, dense comm,
//     transposes, local SpMM, ...) so that the paper's Figure 3 breakdown
//     can be regenerated.
//
// Every collective is SPMD: all members of a group must call the same
// operation in the same order, as in MPI.
package comm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// Category labels where time and traffic are spent, matching the legend of
// the paper's Figure 3.
type Category string

// Categories used by the trainers. CatSparseComm and CatDenseComm split
// communication by payload type; CatTranspose covers redistribution for
// explicit transposes; CatSpMM and CatMisc are compute categories charged by
// trainers via ChargeTime.
const (
	CatSparseComm Category = "scomm"
	CatDenseComm  Category = "dcomm"
	CatTranspose  Category = "trpose"
	CatSpMM       Category = "spmm"
	CatMisc       Category = "misc"
)

// AllCategories lists every category in Figure 3's display order.
var AllCategories = []Category{CatMisc, CatTranspose, CatDenseComm, CatSparseComm, CatSpMM}

// CostParams holds the α–β machine constants used for model-time charging.
type CostParams struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the per-word inverse bandwidth in seconds/word (one word =
	// one float64).
	Beta float64
}

// Payload is the unit of data exchanged between ranks: a float payload plus
// an integer payload (for sparse matrix structure).
type Payload struct {
	Floats []float64
	Ints   []int
}

// Words returns the logical size of the payload in words; both float64
// values and indices count as one word, following the paper's convention of
// counting nnz-proportional sparse traffic.
func (p Payload) Words() int64 { return int64(len(p.Floats)) + int64(len(p.Ints)) }

// Ledger accumulates per-rank accounting. Each rank owns its ledger
// exclusively during Run, so no locking is needed; read it after Run
// returns.
//
// Besides the per-category scalar totals, the ledger keeps an interval
// *timeline*: every charge occupies a span of modeled time on one of two
// per-rank resources — the compute core (ChargeTime) or the network link
// (α–β charges). Synchronous charges advance the rank's clock past their
// span; asynchronous charges (the I-collectives) only reserve
// the network and advance the clock when their Request is waited on, so
// compute issued between initiation and Wait overlaps the in-flight span.
// The clock is therefore the critical path max(comp, comm) of the pipeline
// the rank actually executed, and the bulk sum the bulk-synchronous reading
// of the same run: every span's length summed in charge order, as if nothing
// overlapped. Reading returns both, and LastEpoch both over the last epoch.
type Ledger struct {
	// ModelTime is modeled seconds per category (α–β charges plus compute
	// charges from ChargeTime).
	ModelTime map[Category]float64
	// ModelWords is the β-term word count charged per category.
	ModelWords map[Category]int64
	// ModelMsgs is the α-term message count charged per category.
	ModelMsgs map[Category]int64
	// PhysWordsSent counts words physically pushed into the fabric.
	PhysWordsSent int64
	// PhysMsgsSent counts messages physically pushed into the fabric.
	PhysMsgsSent int64
	// PhysWordsRecv counts words physically pulled out of the fabric.
	PhysWordsRecv int64
	// PhysMsgsRecv counts messages physically pulled out of the fabric.
	PhysMsgsRecv int64
	// PeakMemWords is the high-water mark of modeled resident matrix words
	// reported by the algorithm via RecordMem — the basis for the paper's
	// §IV-D replication-factor comparison.
	PeakMemWords int64
	// Wire is the rank's wire meter: one sample per collective call that
	// moved data, on every fabric.
	Wire WireSums

	// bulk is every charge's span length summed in charge order.
	bulk float64
	// clock is the rank's timeline position: the end of the last span the
	// rank synchronously completed or waited for.
	clock float64
	// netBusy is when the rank's network link frees up: in-flight
	// collectives occupy it serially (one NIC per rank), so a second
	// initiation — or a synchronous collective — queues behind the first
	// even while both hide behind compute.
	netBusy float64
	// hidden accumulates the async communication seconds that overlapped
	// compute: per waited request, the part of its span the clock covered
	// with compute (not with queued synchronous transfers) before the
	// Wait.
	hidden float64
	// compTime is cumulative ChargeTime seconds; requests snapshot it at
	// initiation so Wait can tell compute-covered span from span covered
	// by other transfers dragging the clock.
	compTime float64

	// epochs holds the running totals as the last two EpochDone calls left
	// them, the later at epochs[closed%2]; closed counts the calls.
	epochs [2]Reading
	closed int
}

// RecordMem reports the current modeled resident word count; the ledger
// keeps the maximum.
func (l *Ledger) RecordMem(words int64) {
	if words > l.PeakMemWords {
		l.PeakMemWords = words
	}
}

func newLedger() *Ledger {
	return &Ledger{
		ModelTime:  make(map[Category]float64),
		ModelWords: make(map[Category]int64),
		ModelMsgs:  make(map[Category]int64),
		epochs:     [2]Reading{newReading(), newReading()},
	}
}

// Cluster is the ranks this process hosts and the one launcher that runs
// them; the transport is only what they talk over. NewCluster hosts all p
// ranks of a world on the channel fabric, ClusterOf over LocalTCPComms'
// endpoints all p over loopback sockets, ClusterOf over one DialTCP
// endpoint the one rank a process has of a multi-process world.
// Ledger, Max, Sum and SumWire cover the hosted ranks.
type Cluster struct {
	comms []*Comm // the hosted endpoints
	// failed is the root cause of the Run that aborted the fabric; an
	// aborted cluster refuses further Runs.
	failed error
}

// mailboxDepth bounds in-flight messages per (src, dst) pair. Collectives
// are written so that blocking sends cannot deadlock.
const mailboxDepth = 8

// NewCluster hosts all p ranks of a world on a fresh channel fabric with
// the given cost constants.
func NewCluster(p int, cost CostParams) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("comm: cluster size must be positive, got %d", p))
	}
	f := newChanFabric(p)
	comms := make([]*Comm, p)
	for r := range comms {
		comms[r] = NewTransportComm(f.endpoint(r), cost)
	}
	return &Cluster{comms: comms}
}

// ClusterOf hosts the given endpoints — at least one, all of one world:
// every rank of it (LocalTCPComms, or any endpoints wrapped in a
// FaultTransport) or the single rank of a multi-process world's process.
func ClusterOf(comms ...*Comm) *Cluster {
	for _, c := range comms[1:] {
		if c.size != comms[0].size {
			panic(fmt.Sprintf("comm: rank %d belongs to a world of %d, rank %d to one of %d", c.rank, c.size, comms[0].rank, comms[0].size))
		}
	}
	return &Cluster{comms: comms}
}

// Size returns the number of ranks in the world — the hosted ranks plus,
// in a multi-process world, those hosted elsewhere.
func (c *Cluster) Size() int { return c.comms[0].size }

// Hosted returns the number of ranks this process hosts: Size, or fewer in
// a process that hosts its share of a multi-process world.
func (c *Cluster) Hosted() int { return len(c.comms) }

// Ledger returns a hosted rank's accounting ledger. Read it only after Run
// returns.
func (c *Cluster) Ledger(rank int) *Ledger {
	for _, cm := range c.comms {
		if cm.rank == rank {
			return cm.ledger
		}
	}
	panic(fmt.Sprintf("comm: rank %d is not hosted by this cluster", rank))
}

// SumWire returns the hosted ranks' wire sums added together.
func (c *Cluster) SumWire() WireSums {
	var s WireSums
	for _, cm := range c.comms {
		s.Add(cm.ledger.Wire)
	}
	return s
}

// Close tears down every hosted endpoint's transport — sockets, reader and
// heartbeat goroutines; the channel fabric has nothing to release — and
// returns the first error.
func (c *Cluster) Close() error {
	var first error
	for _, cm := range c.comms {
		if err := cm.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run executes fn on every hosted rank concurrently and waits for all of
// them. It is the one place rank goroutines are started — registered with
// the parallel worker pool meanwhile, so per-rank kernels divide the
// machine instead of oversubscribing it (see parallel.EnterRanks) — and so
// the one failure policy, whatever the fabric. A rank that returns an error
// has finished; its peers are left to finish too, and Run returns the first
// such error in hosting order. A rank that panics — a *PeerError from the
// fabric, a failed checkpoint write, a bug — is recovered, and its root
// cause, naming the rank, is broadcast with the transport's Abort: every
// peer blocked in (or later entering) a Send, Recv or Barrier wakes with a
// *PeerError carrying that cause — and relays it unchanged, for a peer in
// another process that hears of this rank's exit first — instead of waiting
// for a rank that is gone. Run then returns the first failure, not the
// cascade it set off, and the cluster refuses further Runs: its fabric
// stays aborted.
func (c *Cluster) Run(fn func(*Comm) error) error {
	if c.failed != nil {
		return fmt.Errorf("comm: cluster was aborted by an earlier failure: %w", c.failed)
	}
	defer parallel.EnterRanks(len(c.comms))()
	errs := make([]error, len(c.comms))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		cause error // the first panic, recorded before its Abort wakes anyone
	)
	for i, cm := range c.comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				var err error = fmt.Errorf("rank %d: %v", cm.rank, rec)
				reason := err.Error()
				if pe, ok := AsPeerError(rec); ok {
					err, reason = pe, pe.Error()
					if pe.Aborted {
						// Woken by an abort: pass its root cause on as it
						// came, not wrapped once more per rank it crossed.
						reason = pe.Reason
					}
				}
				mu.Lock()
				if cause == nil {
					cause = err
				}
				mu.Unlock()
				cm.tr.Abort(reason)
			}()
			errs[i] = fn(cm)
		}()
	}
	wg.Wait()
	if cause != nil {
		c.failed = cause
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's handle on the fabric: the model ledger, the buffer
// pool, and the collective algorithms, stacked on a Transport that does
// the actual moving. NewTransportComm builds one over any Transport;
// NewCluster builds one per rank of its channel fabric the same way.
type Comm struct {
	tr   Transport
	rank int
	size int
	cost CostParams
	// pool backs collective scratch and result slices; it is the rank's
	// own, recycled by Recycle.
	pool   *bufPool
	ledger *Ledger
	world  *Group // lazily built, cached: World is called on every epoch

	// reqs is the rank's Request arena: requests are checked out in issue
	// order and recycled all at once by Recycle, so the steady-state
	// epoch loop issues collectives without allocating.
	reqs    []*Request
	reqNext int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the cluster.
func (c *Comm) Size() int { return c.size }

// Ledger returns this rank's ledger for compute-charge access.
func (c *Comm) Ledger() *Ledger { return c.ledger }

// sendRaw moves a payload through the transport without model charging
// (collectives charge analytically). The caller keeps ownership of p's
// backing arrays: the transport copies — into the receiver's arena on the
// channel fabric, onto the wire for TCP — so sender and receiver never
// share memory, and received buffers stay valid until Release or Recycle.
func (c *Comm) sendRaw(dst int, p Payload) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("comm: rank %d sending to invalid rank %d", c.rank, dst))
	}
	if dst == c.rank {
		panic(fmt.Sprintf("comm: rank %d sending to itself", c.rank))
	}
	c.ledger.PhysWordsSent += p.Words()
	c.ledger.PhysMsgsSent++
	c.tr.Send(dst, p)
}

// recvRaw receives the next payload from src.
func (c *Comm) recvRaw(src int) Payload {
	if src < 0 || src >= c.size {
		panic(fmt.Sprintf("comm: rank %d receiving from invalid rank %d", c.rank, src))
	}
	if src == c.rank {
		panic(fmt.Sprintf("comm: rank %d receiving from itself", c.rank))
	}
	p := c.tr.Recv(src)
	c.ledger.PhysWordsRecv += p.Words()
	c.ledger.PhysMsgsRecv++
	return p
}

// Charge adds an explicit synchronous α–β charge: msgs α-units and words
// β-units under cat. The span occupies the network link and the clock
// advances past it — the rank blocks until the transfer completes.
func (c *Comm) Charge(cat Category, msgs int64, words int64) {
	l := c.ledger
	cost := c.chargeStats(cat, msgs, words)
	start := l.clock
	if l.netBusy > start {
		start = l.netBusy
	}
	l.netBusy = start + cost
	l.clock = l.netBusy
}

// chargeStats updates the per-category scalar totals for an α–β charge and
// returns its span length. Timeline placement is the caller's business:
// Charge blocks the clock on it, chargeAsync hands it to a Request.
func (c *Comm) chargeStats(cat Category, msgs, words int64) float64 {
	cost := float64(msgs)*c.cost.Alpha + float64(words)*c.cost.Beta
	c.ledger.ModelMsgs[cat] += msgs
	c.ledger.ModelWords[cat] += words
	c.ledger.ModelTime[cat] += cost
	c.ledger.bulk += cost
	return cost
}

// ChargeTime adds modeled compute seconds under cat (used for local SpMM /
// GEMM work, which has no α–β decomposition). Compute occupies the rank's
// core, not its network link: it runs concurrently with any in-flight
// asynchronous collective.
func (c *Comm) ChargeTime(cat Category, seconds float64) {
	c.ledger.ModelTime[cat] += seconds
	c.ledger.bulk += seconds
	c.ledger.clock += seconds
	c.ledger.compTime += seconds
}

// Send transmits a payload point-to-point and charges α + β·words.
func (c *Comm) Send(dst int, p Payload, cat Category) {
	defer c.meterDone(c.meterStart())
	c.Charge(cat, 1, p.Words())
	c.sendRaw(dst, p)
}

// Recv receives the next payload from src. Reception is not charged; the
// α–β model charges the critical path at the sender.
func (c *Comm) Recv(src int) Payload {
	defer c.meterDone(c.meterStart())
	return c.recvRaw(src)
}

// Exchange performs a simultaneous send+receive with peer, charging one
// message each way. Mailboxes are buffered, so both sides sending before
// receiving cannot rendezvous-deadlock and no helper goroutine is needed
// (one message per direction per call, well under the mailbox depth).
func (c *Comm) Exchange(peer int, p Payload, cat Category) Payload {
	defer c.meterDone(c.meterStart())
	c.Charge(cat, 1, p.Words())
	c.sendRaw(peer, p)
	return c.recvRaw(peer)
}

// EpochDone marks a cluster-wide epoch boundary: it keeps the ledger's
// running totals for LastEpoch, advances the transport's epoch count (the
// one FaultTransport's epoch-triggered events read), then Recycles. Every
// rank must call it at the same point (it is a collective, like Barrier).
// The training engine calls it at the end of every epoch, after all epoch
// state has been consumed, which is what makes the steady-state epoch loop
// allocation-free.
func (c *Comm) EpochDone() {
	c.ledger.closeEpoch()
	if et, ok := c.tr.(epochTicker); ok {
		et.EpochTick()
	}
	c.Recycle()
}

// Recycle returns every payload buffer handed out since the last recycle
// and not yet released or kept, without ending an epoch: the rank recycles
// its payload buffers — the Comm's own pool and the transport's receive
// arena — dropping those the round never took, then enters one barrier.
// It is a collective, like Barrier. The block-row trainers call it between
// the column panels of the input layer, which are not epochs, so an
// epoch-triggered fault still counts training epochs.
//
// The recycle needs no barrier before it. A rank recycles only its own
// pool and arena, after its own last Recv of the round; every send has a
// matching Recv, so every payload of the round sent to this rank has
// landed and been read by then. The barrier after it is what keeps the
// next round out: a peer sends its first payload of the next round only
// once it leaves the barrier, which is after this rank has recycled and
// entered it. Without it, such a payload — or the ack count it carries —
// could reach this rank's arena before the recycle, which would then hand
// its buffer out again or clear its count.
//
// After Recycle returns, payloads received earlier — including the float
// slices of collective results — must not be read again: their buffers are
// reused for later traffic, and in a race-detector build read NaN. Only a
// payload the caller took with Keep survives it. It also recycles the rank's Request arena;
// every request issued since the last recycle must have been waited on by
// now (an unwaited request would silently drop its communication span from
// the timeline, so it panics instead).
func (c *Comm) Recycle() {
	c.recycleRequests()
	c.pool.recycle()
	c.tr.recvArena().recycle()
	c.tr.Barrier()
}

// Release hands p's buffers back to the fabric before the next Recycle:
// p is a payload this rank received, or a collective's result, that its
// last reader is done with. Whichever of the rank's two arenas — its
// Comm's pool or its transport's receive arena — handed a side out takes
// it back onto its free list, where the next payload of its class lands;
// a side neither handed out (the caller's own data, a kept or already
// released buffer) is left alone, so a second Release of a payload that no
// checkout has taken since is a no-op. Nothing may read p afterwards: in a
// race-detector build its floats read NaN. It allocates nothing once the
// free lists are sized.
func (c *Comm) Release(p Payload) {
	c.pool.release(c.tr.recvArena().release(p))
}

// Keep hands p's buffers over to the caller for good: the fabric forgets
// them, so neither Release nor Recycle reuses them, and they stay valid for
// as long as the caller holds them, without a copy. Sides the fabric did
// not hand out are left alone. It allocates nothing.
func (c *Comm) Keep(p Payload) {
	c.pool.keep(c.tr.recvArena().keep(p))
}

// LargestBufferWords returns the capacity, in words, of the largest payload
// buffer this rank's fabric holds — in its Comm's pool or its transport's
// arena, free or handed out — for tests and memory accounting. Neither ever
// gives a buffer back to the heap, so it is the widest transient the rank
// has drawn since it started.
func (c *Comm) LargestBufferWords() int64 {
	return max(c.pool.largestWords(), c.tr.recvArena().largestWords())
}

// HeldWords returns the summed capacity, in words, of every payload buffer
// this rank's fabric holds — its Comm's pool and its transport's arena,
// free or handed out: what the fabric adds to the rank's footprint. It
// allocates nothing, so it may be read at any epoch boundary.
func (c *Comm) HeldWords() int64 {
	return c.pool.heldWords() + c.tr.recvArena().heldWords()
}

// Barrier blocks until every rank in the cluster has entered the barrier.
func (c *Comm) Barrier() {
	c.tr.Barrier()
}

// lg2 returns ceil(log2(n)) with lg2(1) = 0.
func lg2(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}

// centralBarrier is a reusable counting barrier that can be aborted: once
// abort is called, every waiter — present and future — returns false.
type centralBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	phase   int
	aborted bool
}

func newCentralBarrier(n int) *centralBarrier {
	b := &centralBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n parties have arrived and returns true, or
// returns false as soon as the barrier is aborted.
func (b *centralBarrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return true
	}
	for phase == b.phase && !b.aborted {
		b.cond.Wait()
	}
	return phase != b.phase
}

func (b *centralBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
