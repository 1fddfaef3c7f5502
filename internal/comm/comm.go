// Package comm implements a simulated distributed-memory runtime: P ranks
// run as goroutines and exchange messages through an in-process fabric.
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
// Elapsed is therefore the critical path max(comp, comm) of the pipeline
// the rank actually executed, while TotalTime remains the bulk-synchronous
// sum of all spans.
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
	}
}

// TotalTime returns the sum of modeled time across categories — the
// bulk-synchronous cost, as if no communication overlapped compute.
func (l *Ledger) TotalTime() float64 {
	var s float64
	for _, v := range l.ModelTime {
		s += v
	}
	return s
}

// Elapsed returns the rank's timeline clock: the critical-path modeled
// time of everything charged so far. When every charge was synchronous it
// equals TotalTime (up to float summation order); asynchronous charges
// waited on after intervening compute shrink it by the hidden overlap.
func (l *Ledger) Elapsed() float64 { return l.clock }

// HiddenCommTime returns the asynchronous communication seconds that were
// hidden behind compute: the total span length of waited requests minus
// their exposed remainders. It is the overlap headroom actually realized.
func (l *Ledger) HiddenCommTime() float64 { return l.hidden }

// CommTime returns modeled time in communication categories only.
func (l *Ledger) CommTime() float64 {
	return l.ModelTime[CatSparseComm] + l.ModelTime[CatDenseComm] + l.ModelTime[CatTranspose]
}

// TotalWords returns the sum of modeled words across categories.
func (l *Ledger) TotalWords() int64 {
	var s int64
	for _, v := range l.ModelWords {
		s += v
	}
	return s
}

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
	l.clock = 0
	l.netBusy = 0
	l.hidden = 0
	l.compTime = 0
}

// Cluster is the in-process fabric connecting P ranks.
type Cluster struct {
	p       int
	cost    CostParams
	mailbox [][]chan Payload // mailbox[src][dst]
	ledgers []*Ledger
	barrier *centralBarrier
	pool    *bufPool
}

// mailboxDepth bounds in-flight messages per (src, dst) pair. Collectives
// are written so that blocking sends cannot deadlock.
const mailboxDepth = 8

// NewCluster creates a fabric for p ranks with the given cost constants.
func NewCluster(p int, cost CostParams) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("comm: cluster size must be positive, got %d", p))
	}
	c := &Cluster{p: p, cost: cost, barrier: newCentralBarrier(p), pool: newBufPool()}
	c.mailbox = make([][]chan Payload, p)
	c.ledgers = make([]*Ledger, p)
	for i := 0; i < p; i++ {
		c.mailbox[i] = make([]chan Payload, p)
		for j := 0; j < p; j++ {
			c.mailbox[i][j] = make(chan Payload, mailboxDepth)
		}
		c.ledgers[i] = newLedger()
	}
	return c
}

// Size returns the number of ranks.
func (c *Cluster) Size() int { return c.p }

// Ledger returns rank's accounting ledger. Read it only after Run returns.
func (c *Cluster) Ledger(rank int) *Ledger { return c.ledgers[rank] }

// MaxTotalTime returns the modeled run time: the maximum over ranks of
// the critical-path timeline clock. Under purely synchronous execution it
// equals the classic per-rank sum of all charges; when trainers run with
// communication/computation overlap, in-flight collective spans hide
// behind compute and the maximum shrinks accordingly.
func (c *Cluster) MaxTotalTime() float64 {
	var mx float64
	for _, l := range c.ledgers {
		if t := l.Elapsed(); t > mx {
			mx = t
		}
	}
	return mx
}

// MaxHiddenCommTime returns the largest per-rank hidden communication
// time: the async collective seconds that overlapped compute.
func (c *Cluster) MaxHiddenCommTime() float64 {
	var mx float64
	for _, l := range c.ledgers {
		if t := l.HiddenCommTime(); t > mx {
			mx = t
		}
	}
	return mx
}

// MaxTimeByCategory returns, per category, the maximum modeled time across
// ranks (the paper's per-category breakdown is per-process maxima under
// bulk-synchronous execution).
func (c *Cluster) MaxTimeByCategory() map[Category]float64 {
	out := make(map[Category]float64)
	for _, l := range c.ledgers {
		for k, v := range l.ModelTime {
			if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// MaxWordsByCategory returns per-category maximum modeled words across
// ranks.
func (c *Cluster) MaxWordsByCategory() map[Category]int64 {
	out := make(map[Category]int64)
	for _, l := range c.ledgers {
		for k, v := range l.ModelWords {
			if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// SumWordsByCategory returns per-category modeled words summed over all
// ranks: the total communication volume, as opposed to the per-rank
// maximum that bounds bulk-synchronous runtime — the §IV-A-8 distinction
// between total and max edgecut.
func (c *Cluster) SumWordsByCategory() map[Category]int64 {
	out := make(map[Category]int64)
	for _, l := range c.ledgers {
		for k, v := range l.ModelWords {
			out[k] += v
		}
	}
	return out
}

// MaxPeakMemWords returns the largest per-rank peak resident word count.
func (c *Cluster) MaxPeakMemWords() int64 {
	var mx int64
	for _, l := range c.ledgers {
		if l.PeakMemWords > mx {
			mx = l.PeakMemWords
		}
	}
	return mx
}

// TotalWords sums modeled words over all ranks and categories.
func (c *Cluster) TotalWords() int64 {
	var s int64
	for _, l := range c.ledgers {
		s += l.TotalWords()
	}
	return s
}

// ResetLedgers clears all rank ledgers (e.g., to discard a warmup epoch).
func (c *Cluster) ResetLedgers() {
	for _, l := range c.ledgers {
		l.Reset()
	}
}

// Run executes fn on every rank concurrently and waits for all to finish.
// The first non-nil error is returned. A panic in any rank is re-raised.
//
// While the ranks run, they are registered with the parallel worker pool so
// that per-rank compute kernels divide the machine between them instead of
// oversubscribing it (each of the P rank goroutines already occupies a
// core; see parallel.EnterRanks).
func (c *Cluster) Run(fn func(*Comm) error) error {
	defer parallel.EnterRanks(c.p)()
	errs := make([]error, c.p)
	panics := make([]any, c.p)
	var wg sync.WaitGroup
	for r := 0; r < c.p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panics[rank] = rec
				}
			}()
			errs[rank] = fn(&Comm{
				tr:         &inprocTransport{cluster: c, rank: rank},
				rank:       rank,
				size:       c.p,
				cost:       c.cost,
				pool:       c.pool,
				poolShared: true,
				ledger:     c.ledgers[rank],
			})
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("comm: rank %d panicked: %v", r, p))
		}
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
// the actual moving. Cluster.Run builds one per rank over the in-process
// fabric; NewTransportComm builds one over any other Transport (TCP).
type Comm struct {
	tr   Transport
	rank int
	size int
	cost CostParams
	// pool backs payload clones and collective scratch. Cluster ranks
	// share the cluster pool (poolShared); transport comms own a private
	// one, recycled by every rank's EpochDone.
	pool       *bufPool
	poolShared bool
	ledger     *Ledger
	world      *Group // lazily built, cached: World is called on every epoch
	meter      *Meter // wire metering, nil unless EnableMetering

	// reqs is the rank's Request arena: requests are checked out in issue
	// order and recycled all at once by EpochDone, so the steady-state
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
// backing arrays: the transport copies — through the shared pool for the
// in-process fabric, onto the wire for TCP — so sender and receiver never
// share memory, and received buffers stay valid until the next EpochDone.
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
	return cost
}

// ChargeTime adds modeled compute seconds under cat (used for local SpMM /
// GEMM work, which has no α–β decomposition). Compute occupies the rank's
// core, not its network link: it runs concurrently with any in-flight
// asynchronous collective.
func (c *Comm) ChargeTime(cat Category, seconds float64) {
	c.ledger.ModelTime[cat] += seconds
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

// EpochDone marks a cluster-wide epoch boundary: all ranks synchronize,
// the payload-buffer pools are recycled — the Comm's own (by rank 0 alone
// when the cluster shares one) and the transport's receive arena, if it
// has one — and all ranks synchronize again before continuing. Every rank
// must call it at the same point (it is a collective, like Barrier).
//
// After EpochDone returns, payloads received earlier — including the float
// slices of collective results — must not be read again: their buffers are
// reused for the next epoch's traffic. The training engine calls this at
// the end of every epoch, after all epoch state has been consumed, which is
// what makes the steady-state epoch loop allocation-free.
//
// EpochDone also recycles the rank's Request arena; every request issued
// during the epoch must have been waited on by now (an unwaited request
// would silently drop its communication span from the timeline, so it
// panics instead).
func (c *Comm) EpochDone() {
	if et, ok := c.tr.(epochTicker); ok {
		et.EpochTick()
	}
	c.recycleRequests()
	c.tr.Barrier()
	if !c.poolShared || c.rank == 0 {
		c.pool.recycle()
	}
	if er, ok := c.tr.(epochRecycler); ok {
		er.EpochRecycle()
	}
	c.tr.Barrier()
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

// centralBarrier is a reusable counting barrier.
type centralBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newCentralBarrier(n int) *centralBarrier {
	b := &centralBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *centralBarrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
}
