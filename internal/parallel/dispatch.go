package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
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

// Inline reports whether a Run call with the same arguments would run its
// kernel inline on the calling goroutine (a one-worker pool, tiny kernels,
// or a pool fully divided among simulated ranks).
func Inline(rows int, work int64) bool {
	return rows <= 1 || work < minParallelWork || pool.Load().effective() <= 1
}

// Run runs k over row ranges covering [0, rows). Unless Inline holds, the
// range is split into contiguous chunks across the shared pool; otherwise
// k.Rows(0, rows) runs inline. Each row belongs to exactly one chunk, so a
// kernel whose per-row computation order matches its serial loop produces
// bit-identical output at every worker count. The dispatch allocates
// nothing; a k that is a pointer converts to a Kernel without allocating.
func Run(rows int, work int64, k Kernel) {
	if Inline(rows, work) {
		k.Rows(0, rows)
		return
	}
	p := pool.Load()
	p.For(rows, p.effective(), k)
}

// Rows is Run over a function. A func literal that captures variables is
// heap-allocated wherever it is passed to Rows, inline or not; the hot
// kernels use a Dispatcher instead.
func Rows(rows int, work int64, fn func(lo, hi int)) {
	Run(rows, work, RowFunc(fn))
}

// Dispatcher runs one kind of kernel over the shared pool, a K describing
// each call: its arguments, with Rows (on *K) the kernel. Run copies them
// into a descriptor from the Dispatcher's free list and returns it there
// afterwards, so a kernel run through a package-level Dispatcher allocates
// nothing once as many descriptors exist as calls were ever in flight at
// once. The zero value is ready to use.
type Dispatcher[K any, P interface {
	*K
	Kernel
}] struct {
	mu   sync.Mutex
	free []*K
}

// Run runs the kernel args describes over row ranges covering [0, rows),
// as the package-level Run does.
func (d *Dispatcher[K, P]) Run(rows int, work int64, args K) {
	d.mu.Lock()
	var k *K
	if n := len(d.free); n > 0 {
		k, d.free = d.free[n-1], d.free[:n-1]
	} else {
		k = new(K)
	}
	d.mu.Unlock()
	*k = args
	Run(rows, work, P(k))
	var zero K
	*k = zero
	d.mu.Lock()
	d.free = append(d.free, k)
	d.mu.Unlock()
}
