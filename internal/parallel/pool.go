// Package parallel provides the shared worker pool behind the repository's
// compute kernels.
//
// The paper identifies local SpMM as the dominant cost of full-batch GNN
// training; this package lets every hot kernel (sparse SpMM family, dense
// GEMM family, elementwise activations) run row-partitioned across cores
// while staying bit-identical to the serial kernels. Determinism comes from
// owner-computes row partitioning: every output row is written by exactly
// one worker, and the per-row accumulation order is the same as in the
// serial loop, so the floating-point result does not depend on the worker
// count or on scheduling.
//
// One process-global number controls execution: the worker count,
// defaulting to runtime.NumCPU and overridable with SetWorkers or the
// CAGNET_WORKERS environment variable. One worker runs every kernel inline
// on the calling goroutine.
//
// When the simulated comm fabric runs P rank goroutines (comm.Cluster.Run),
// it registers them via EnterRanks; each kernel then divides the pool among
// the active ranks so that per-rank parallelism never oversubscribes the
// machine. With P >= worker ranks every per-rank kernel runs inline, which
// is exactly the serial behavior the trainers had before this package
// existed.
package parallel

// Kernel is a computation over the rows of its output: Rows(lo, hi)
// computes rows [lo, hi) and writes no other row.
type Kernel interface {
	Rows(lo, hi int)
}

// RowFunc is a function as a Kernel.
type RowFunc func(lo, hi int)

// Rows calls f.
func (f RowFunc) Rows(lo, hi int) { f(lo, hi) }

// Pool is a reusable fixed-size worker pool executing row-range chunks.
//
// Every background worker has one slot, allocated with the pool: a For call
// claims idle slots, places a chunk in each and wakes its worker, so
// dispatch allocates nothing. A chunk no idle worker can take runs on the
// calling goroutine, so For never waits for a busy worker and nested For
// calls cannot deadlock.
type Pool struct {
	workers int
	slots   []slot
}

// slot is one background worker's hand-off. idle holds a token while no For
// call has claimed the slot; the claimer sets k, lo and hi and sends on
// wake, the worker runs the chunk and sends on done what it panicked with
// (nil if nothing), and the claimer, having received it, puts the token
// back. next links the slots one For call has claimed.
type slot struct {
	idle   chan struct{}
	wake   chan struct{}
	done   chan any
	k      Kernel
	lo, hi int
	next   *slot
}

// NewPool returns a pool that executes up to workers chunks concurrently.
// The calling goroutine of For counts as one worker, so workers-1 background
// goroutines are spawned. workers < 1 is treated as 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, slots: make([]slot, workers-1)}
	for i := range p.slots {
		s := &p.slots[i]
		s.idle, s.wake, s.done = make(chan struct{}, 1), make(chan struct{}, 1), make(chan any, 1)
		s.idle <- struct{}{}
		go s.serve()
	}
	return p
}

// Workers returns the pool's concurrency, including the calling goroutine.
func (p *Pool) Workers() int { return p.workers }

func (s *slot) serve() {
	for range s.wake {
		s.done <- run(s.k, s.lo, s.hi)
	}
}

// run runs k over [lo, hi) and returns what it panicked with, or nil.
func run(k Kernel, lo, hi int) (panicked any) {
	defer func() { panicked = recover() }()
	k.Rows(lo, hi)
	return nil
}

// stop ends the background workers without waiting for them: each ends
// once the For call holding its slot, if any, has finished with it. For
// calls that find no idle slot run their chunks themselves, so calls still
// in flight on a stopped pool complete.
func (p *Pool) stop() {
	go func() {
		for i := range p.slots {
			<-p.slots[i].idle
			close(p.slots[i].wake)
		}
	}()
}

// effective returns how many chunks a For call should use given the number
// of concurrently simulated ranks registered via EnterRanks.
func (p *Pool) effective() int {
	r := activeRanks.Load()
	w := p.workers
	if r > 1 {
		w /= int(r)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkRange returns the half-open range of items owned by chunk c when n
// items are split into w balanced contiguous chunks.
func chunkRange(n, w, c int) (lo, hi int) {
	return c * n / w, (c + 1) * n / w
}

// For partitions [0, n) into w contiguous chunks (capped at n) and runs k
// on each, returning when all chunks are done. k must treat its range as
// exclusively owned; chunks for distinct ranges run concurrently.
//
// Chunks 1 … w-1 go to idle workers as far as there are any; the caller
// runs chunk 0 and every chunk left over, then waits for the workers it
// woke. A panic in any chunk is captured and re-raised on the calling
// goroutine once all chunks have finished, so callers (e.g. the per-rank
// recover in comm.Cluster.Run) observe it exactly as they would from a
// serial kernel.
func (p *Pool) For(n, w int, k Kernel) {
	if w > n {
		w = n
	}
	if w <= 1 {
		k.Rows(0, n)
		return
	}
	var claimed *slot
	c := 1
	for i := range p.slots {
		if c == w {
			break
		}
		s := &p.slots[i]
		select {
		case <-s.idle:
		default:
			continue
		}
		s.k, s.next, claimed = k, claimed, s
		s.lo, s.hi = chunkRange(n, w, c)
		s.wake <- struct{}{}
		c++
	}
	lo, hi := chunkRange(n, w, 0)
	first := run(k, lo, hi)
	for ; c < w; c++ {
		lo, hi = chunkRange(n, w, c)
		if r := run(k, lo, hi); first == nil {
			first = r
		}
	}
	for s := claimed; s != nil; {
		r, next := <-s.done, s.next
		if first == nil {
			first = r
		}
		s.k, s.next = nil, nil
		s.idle <- struct{}{}
		s = next
	}
	if first != nil {
		panic(first)
	}
}
