package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// useWorkers sets the shared pool to n workers for the rest of the test,
// restoring the previous count when it ends.
func useWorkers(tb testing.TB, n int) {
	prev := Workers()
	SetWorkers(n)
	tb.Cleanup(func() { SetWorkers(prev) })
}

// TestForCoversRangeExactlyOnce checks that every item in [0, n) is visited
// exactly once for a sweep of sizes and worker counts, including w > n.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16} {
		p := NewPool(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			visits := make([]int32, n)
			p.For(n, w, RowFunc(func(lo, hi int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("w=%d n=%d: bad chunk [%d,%d)", w, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			}))
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("w=%d n=%d: item %d visited %d times", w, n, i, v)
				}
			}
		}
		p.stop()
	}
}

// TestNestedForCompletes checks that For calls issued from inside pool tasks
// complete without deadlock (a call runs the chunks no idle worker takes).
func TestNestedForCompletes(t *testing.T) {
	p := NewPool(4)
	defer p.stop()
	var count atomic.Int64
	p.For(8, 4, RowFunc(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.For(100, 4, RowFunc(func(nlo, nhi int) {
				count.Add(int64(nhi - nlo))
			}))
		}
	}))
	if got := count.Load(); got != 800 {
		t.Fatalf("nested For visited %d items, want 800", got)
	}
}

// TestRowsOneWorkerRunsInline checks a one-worker pool runs the full range
// inline and a larger pool still covers every row exactly once.
func TestRowsOneWorkerRunsInline(t *testing.T) {
	const n, work = 512, 1 << 20
	useWorkers(t, 1)
	calls := 0
	Rows(n, work, func(lo, hi int) {
		calls++
		if lo != 0 || hi != n {
			t.Errorf("1 worker: got chunk [%d,%d), want [0,%d)", lo, hi, n)
		}
	})
	if calls != 1 || !Inline(n, work) {
		t.Errorf("1 worker: %d chunks (Inline %v), want 1 inline call", calls, Inline(n, work))
	}
	useWorkers(t, 8)
	visits := make([]int32, n)
	Rows(n, work, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("8 workers: row %d visited %d times", i, v)
		}
	}
}

// TestRowsSmallWorkRunsInline checks the work threshold keeps tiny kernels
// on the caller's goroutine.
func TestRowsSmallWorkRunsInline(t *testing.T) {
	useWorkers(t, 8)
	calls := 0
	Rows(4, 10, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Errorf("small kernel split into %d chunks, want 1 inline call", calls)
	}
}

// TestEnterRanksGuard checks that registered rank goroutines shrink the
// per-kernel chunk count, down to inline execution at full occupancy.
func TestEnterRanksGuard(t *testing.T) {
	useWorkers(t, 8)
	leave := EnterRanks(8)
	calls := 0
	Rows(512, 1<<20, func(lo, hi int) { calls++ })
	leave()
	if calls != 1 {
		t.Errorf("with ranks == workers, kernel split into %d chunks, want 1", calls)
	}

	leave = EnterRanks(2)
	var chunks atomic.Int32
	Rows(512, 1<<20, func(lo, hi int) { chunks.Add(1) })
	leave()
	if got := chunks.Load(); got != 4 {
		t.Errorf("with 2 ranks over 8 workers, got %d chunks, want 4", got)
	}
}

// TestPoolStress hammers the shared pool from many goroutines; run under
// -race it doubles as the worker-pool data-race check.
func TestPoolStress(t *testing.T) {
	useWorkers(t, 8)
	const goroutines = 16
	const n = 2048
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				dst := make([]int, n)
				Rows(n, 1<<20, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						dst[i] = g + i
					}
				})
				for i, v := range dst {
					if v != g+i {
						t.Errorf("goroutine %d iter %d: dst[%d] = %d, want %d", g, iter, i, v, g+i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForPanicPropagates checks that a panic in any chunk — including ones
// executed on background workers — is re-raised on the calling goroutine,
// and that the pool stays usable afterwards.
func TestForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.stop()
	for iter := 0; iter < 3; iter++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic in chunk was swallowed")
				}
				if s, ok := r.(string); !ok || s != "kernel blew up" {
					t.Fatalf("unexpected panic value %v", r)
				}
			}()
			p.For(100, 4, RowFunc(func(lo, hi int) {
				if lo >= 50 {
					panic("kernel blew up")
				}
			}))
		}()
	}
	// The pool must still complete normal work after a panicking call.
	var count atomic.Int64
	p.For(100, 4, RowFunc(func(lo, hi int) { count.Add(int64(hi - lo)) }))
	if count.Load() != 100 {
		t.Fatalf("pool broken after panic: visited %d items, want 100", count.Load())
	}
}
