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

import (
	"sync/atomic"
)

// Pool is a reusable fixed-size worker pool executing row-range tasks.
//
// The pool never deadlocks on nested For calls: a goroutine waiting for its
// chunks to finish helps drain the shared task queue, so queued work always
// has at least one goroutine able to run it.
type Pool struct {
	workers int
	tasks   chan func()
	quit    chan struct{}
}

// NewPool returns a pool that executes up to workers chunks concurrently.
// The calling goroutine of For counts as one worker, so workers-1 background
// goroutines are spawned. workers < 1 is treated as 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func(), 4*workers),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's concurrency, including the calling goroutine.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	for {
		select {
		case t := <-p.tasks:
			t()
		case <-p.quit:
			return
		}
	}
}

// stop signals background workers to exit once idle. Tasks still queued are
// drained by the For callers that own them, so no work is lost.
func (p *Pool) stop() { close(p.quit) }

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

// For partitions [0, n) into w contiguous chunks (capped at n) and runs fn
// on each, returning when all chunks are done. fn must treat its range as
// exclusively owned; chunks for distinct ranges run concurrently.
//
// The caller executes chunk 0 itself and then helps drain the shared queue
// while waiting, so For is safe to call from inside a pool task. A panic in
// any chunk is captured and re-raised on the calling goroutine once all
// chunks have finished, so callers (e.g. the per-rank recover in
// comm.Cluster.Run) observe it exactly as they would from a serial kernel.
func (p *Pool) For(n, w int, fn func(lo, hi int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	var pending atomic.Int32
	pending.Store(int32(w))
	var panicked atomic.Pointer[any]
	done := make(chan struct{})
	runChunk := func(lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
			}
			if pending.Add(-1) == 0 {
				close(done)
			}
		}()
		fn(lo, hi)
	}
	for c := 1; c < w; c++ {
		lo, hi := chunkRange(n, w, c)
		task := func() { runChunk(lo, hi) }
		select {
		case p.tasks <- task:
		default:
			// Queue full: run the chunk inline rather than block.
			task()
		}
	}
	lo, hi := chunkRange(n, w, 0)
	runChunk(lo, hi)
	for {
		select {
		case t := <-p.tasks:
			t()
		case <-done:
			if r := panicked.Load(); r != nil {
				panic(*r)
			}
			return
		}
	}
}
