package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// minParallelWork is the kernel work (in flops or element writes) below
// which parallel dispatch is not worth the scheduling overhead.
const minParallelWork = 1 << 15

var (
	activeRanks atomic.Int64 // simulated rank goroutines, see EnterRanks
	pool        atomic.Pointer[Pool]
)

func init() {
	w := runtime.NumCPU()
	if s, ok := os.LookupEnv("CAGNET_WORKERS"); ok {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			w = n
		}
	}
	pool.Store(NewPool(w))
}

// SetWorkers replaces the shared pool with one of n workers; n = 1 runs
// every kernel single-threaded. It is meant for process startup and tests;
// kernels already in flight finish on the old pool.
func SetWorkers(n int) {
	old := pool.Swap(NewPool(n))
	if old != nil {
		old.stop()
	}
}

// Workers returns the shared pool's worker count.
func Workers() int { return pool.Load().Workers() }

// EnterRanks registers p concurrently running simulated rank goroutines and
// returns a function that unregisters them. While ranks are registered,
// every kernel divides the pool among them so per-rank parallelism does not
// oversubscribe the machine; with at least as many ranks as workers the
// kernels run inline (serial).
func EnterRanks(p int) (leave func()) {
	if p < 1 {
		p = 1
	}
	activeRanks.Add(int64(p))
	return func() { activeRanks.Add(-int64(p)) }
}

// Inline reports whether a Rows call with the same arguments would run its
// function inline on the calling goroutine (a one-worker pool, tiny
// kernels, or a pool fully divided among simulated ranks).
//
// Hot kernels check Inline first and call their row-range helper directly
// when it returns true: a func literal passed to Rows escapes to the pool
// workers and is therefore heap-allocated at every call site, even when the
// dispatch ends up inline. The explicit fast path keeps the steady-state
// training epoch allocation-free on one worker.
func Inline(rows int, work int64) bool {
	return rows <= 1 || work < minParallelWork || pool.Load().effective() <= 1
}

// Rows runs fn over row ranges covering [0, rows). Unless Inline holds, the
// range is split into contiguous chunks across the shared pool; otherwise
// fn(0, rows) runs inline. Each row belongs to exactly one chunk, so a
// kernel whose per-row computation order matches its serial loop produces
// bit-identical output at every worker count.
func Rows(rows int, work int64, fn func(lo, hi int)) {
	if Inline(rows, work) {
		fn(0, rows)
		return
	}
	p := pool.Load()
	p.For(rows, p.effective(), fn)
}
