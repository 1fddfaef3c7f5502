package dense

import (
	"math"
	"math/bits"
)

// Workspace is a per-rank arena of reusable matrix buffers for the
// steady-state training loop. Trainers check temporaries out with Get (or
// wrap foreign buffers with Wrap) and hand each one back with Release after
// its last reader, so the arena holds the live set of the epoch — the most
// temporaries alive at once — rather than the sum of its draws; Reset at
// the epoch boundary returns whatever is still checked out. After the first epochs have populated
// the free lists, Get/Wrap/Release/Reset perform zero heap allocations, so
// an epoch that draws all its temporaries from the workspace runs
// allocation-free.
//
// Buffers are keyed by capacity class (CapClass of the element count:
// eight classes per octave), so shapes that differ by a few elements —
// layers of different widths, row blocks of different heights — reuse the
// same backing arrays instead of growing a free list per exact shape, and
// no buffer above 16 elements is more than 1/8 larger than the largest
// checkout it served. A checkout that finds no idle buffer of its class
// takes the smallest idle one of a class at most twice its own (TakeIdle),
// so a wide buffer that once served a set-up product or an ended layer
// serves the narrower draws after it instead of staying resident beside
// them.
//
// A workspace is owned by a single goroutine (one simulated rank); it is
// not safe for concurrent use. All methods are nil-safe: a nil workspace
// degrades to plain allocation (Get = New, Wrap = FromSlice, Release and
// Reset = no-op) so call sites need no branching when no arena is
// configured.
type Workspace struct {
	free    map[int][]*Matrix // capacity class -> idle buffers
	used    []*Matrix         // checked out by Get, not yet released
	hdrFree []*Matrix         // idle headers for Wrap (no owned data)
	wrapped []*Matrix         // checked out by Wrap, not yet released
	minCols int               // see Widen
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][]*Matrix)}
}

// CapClass returns the capacity class of an n-element buffer: the smallest
// power of two ≥ n up to 16, and above that the smallest multiple of
// 2^(e-3) ≥ n, where 2^e < n ≤ 2^(e+1) — eight classes per octave, so a
// class is never more than 1/8 above the request and a power of two is its
// own class. Every arena of the repo (Workspace, the MulT pack pool, the
// fabric's buffer pools) keys its free lists by it.
func CapClass(n int) int {
	if n <= 16 {
		c := 1
		for c < n {
			c <<= 1
		}
		return c
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

// Widen makes every checkout narrower than c columns draw the buffer a
// c-column checkout of the same rows would, until Widen(0). A product run
// in column panels of width c calls it around its ragged last panel, so
// that panel reuses the full panels' buffers instead of adding its own
// class of every one of them.
func (w *Workspace) Widen(c int) {
	if w != nil {
		w.minCols = c
	}
}

// TakeIdle pops an idle buffer for a checkout of capacity class k from
// free lists keyed by class: one of class k when there is one, else the
// smallest of a class at most 2k. ok is false when none fits. Every arena
// of the repo checks out through it, so a buffer serves requests down to
// half its size and never one larger.
func TakeIdle[E any](free map[int][]E, k int) (e E, ok bool) {
	for c := k; c <= 2*k; c = CapClass(c + 1) {
		if list := free[c]; len(list) > 0 {
			e = list[len(list)-1]
			free[c] = list[:len(list)-1]
			return e, true
		}
	}
	return e, false
}

// Get checks out a zeroed r-by-c matrix, exactly like New but drawing the
// header and backing array from the arena when a large-enough buffer is
// free. The matrix is valid until it is released, or the next Reset.
func (w *Workspace) Get(r, c int) *Matrix {
	m := w.GetUninit(r, c)
	if w != nil { // a nil workspace returned a fresh, already-zeroed New
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	return m
}

// GetUninit is Get without the zero fill: the returned matrix holds
// whatever a previous checkout left in the recycled buffer. Use it only
// where every element is written before being read — overwriting kernels
// (Mul, MulT, TMul, SpMM, activation Forward/Backward) and full
// copies (SubMatrixInto, GatherRowsInto, complete SetSubMatrix tilings).
// Accumulating kernels (SpMMAdd and friends) and sparse writers (the loss
// gradient) need Get. Skipping the fill matters on the bandwidth-bound
// epoch path: it is one full pass over the largest temporaries per layer.
func (w *Workspace) GetUninit(r, c int) *Matrix {
	if w == nil {
		return New(r, c)
	}
	n := r * c
	k := CapClass(r * max(c, w.minCols))
	m, ok := TakeIdle(w.free, k)
	if !ok {
		m = &Matrix{Data: make([]float64, 0, k)}
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
	w.used = append(w.used, m)
	return m
}

// Wrap checks out a header-only r-by-c matrix around data (not copied),
// exactly like FromSlice but reusing headers from the arena. The caller
// retains ownership of data; Release and Reset reclaim only the header.
func (w *Workspace) Wrap(r, c int, data []float64) *Matrix {
	if w == nil {
		return FromSlice(r, c, data)
	}
	if len(data) != r*c {
		return FromSlice(r, c, data) // delegate for the panic message
	}
	var m *Matrix
	if n := len(w.hdrFree); n > 0 {
		m = w.hdrFree[n-1]
		w.hdrFree = w.hdrFree[:n-1]
	} else {
		m = &Matrix{}
	}
	m.Rows, m.Cols, m.Data = r, c, data
	w.wrapped = append(w.wrapped, m)
	return m
}

// Keep takes m, checked out since the last Reset, out of the epoch scope
// and returns its contents in storage the caller owns from then on. A Get
// buffer is handed over in place — the arena forgets it, nothing is copied,
// and the caller holds exactly the memory the arena held — while anything
// else (a Wrap header around foreign data, such as a fabric payload its
// pool will recycle) is copied.
func (w *Workspace) Keep(m *Matrix) *Matrix {
	if w != nil && checkIn(&w.used, m) {
		return m
	}
	return m.Clone()
}

// Release returns m to the arena before Reset: a buffer checked out by Get
// or GetUninit goes back to its free list — the next checkout of its class
// takes it — and a Wrap header to the header list, detached from its data.
// Any other matrix — one that was never checked out, was kept, or was
// already released — is left alone, so a second Release of a matrix that
// no checkout has taken since is a no-op. The caller must not touch m
// afterwards. In a race-detector build the released buffer is filled with
// NaN, so a read after its release — or a GetUninit reader that reads
// before it writes — shows in every result it reaches. It allocates
// nothing once the free lists are sized.
func (w *Workspace) Release(m *Matrix) {
	if w == nil || m == nil {
		return
	}
	if checkIn(&w.used, m) {
		d := m.Data[:cap(m.Data)]
		if PoisonReleased {
			nan := math.NaN()
			for i := range d {
				d[i] = nan
			}
		}
		k := CapClass(cap(d))
		w.free[k] = append(w.free[k], m)
		return
	}
	if checkIn(&w.wrapped, m) {
		m.Data = nil
		w.hdrFree = append(w.hdrFree, m)
	}
}

// checkIn removes m from the checked-out list *out, reporting whether it
// was there. The list is searched from its end, where the most recent
// checkouts — the likeliest to be handed back — sit.
func checkIn(out *[]*Matrix, m *Matrix) bool {
	list := *out
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == m {
			last := len(list) - 1
			list[i], list[last] = list[last], nil
			*out = list[:last]
			return true
		}
	}
	return false
}

// Reset returns every matrix still checked out to the arena. Callers must
// not touch previously checked-out matrices afterwards:
// Get buffers will be recycled (and re-zeroed) for later checkouts, and
// Wrap headers are detached from their data.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	for i, m := range w.used {
		k := CapClass(cap(m.Data))
		w.free[k] = append(w.free[k], m)
		w.used[i] = nil
	}
	w.used = w.used[:0]
	for i, m := range w.wrapped {
		m.Data = nil
		w.hdrFree = append(w.hdrFree, m)
		w.wrapped[i] = nil
	}
	w.wrapped = w.wrapped[:0]
}

// LargestWords returns the element capacity of the largest buffer the arena
// owns (free or checked out by Get), for tests and memory accounting.
func (w *Workspace) LargestWords() int64 {
	if w == nil {
		return 0
	}
	var mx int
	for k, list := range w.free {
		if len(list) > 0 {
			mx = max(mx, k)
		}
	}
	for _, m := range w.used {
		mx = max(mx, cap(m.Data))
	}
	return int64(mx)
}

// FootprintWords returns the total element capacity owned by the arena
// (free and checked-out Get buffers), for tests and memory accounting.
func (w *Workspace) FootprintWords() int64 {
	if w == nil {
		return 0
	}
	var s int64
	for _, list := range w.free {
		for _, m := range list {
			s += int64(cap(m.Data))
		}
	}
	for _, m := range w.used {
		s += int64(cap(m.Data))
	}
	return s
}
