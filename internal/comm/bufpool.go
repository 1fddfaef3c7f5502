package comm

import (
	"math"
	"sync"
	"unsafe"

	"repro/internal/dense"
)

// bufPool is an arena of the fabric's transient buffers: in a Comm's pool,
// collective accumulators and the []Payload result slices of gather-style
// operations; in a transport's receive arena (recvArena, one bufPool per
// sending peer), the buffers received payloads land in. Buffers are keyed by capacity class (dense.CapClass, the
// Workspace's eight classes per octave, so a buffer is at most 1/8 larger
// than the largest payload it carried) and checked out, under a mutex, by
// the Workspace's bounded best fit (dense.TakeIdle: its own class, else the
// smallest idle one of at most twice its class, so the input layer's wide
// exchanges serve the epochs' narrower ones instead of staying resident
// beside them).
//
// Like the workspace, a pool takes a buffer back at its last reader:
// Comm.Release returns a checked-out buffer to the free lists, and
// Comm.Keep hands one over to its reader for good, so the pools hold the
// largest set of payloads live at once rather than everything an epoch
// received. Comm.Recycle returns whatever is still checked out, all at
// once — the point where every rank has agreed, via barrier, that no
// buffer handed out since the last recycle is still referenced — and
// drops the buffers the round between two recycles never took, so what
// only the run's set-up drew — an input-layer exchange more than twice as
// wide as any an epoch draws — leaves the arena once an epoch has passed
// without it.
//
// Steady state is allocation-free, and which checkouts allocate is a
// function of the program, never of goroutine timing: a Comm's pool is
// checked out and released by its rank alone, and a receive arena's pool
// for peer s is checked out only for s's payloads, in the order s sent
// them, and gets a released buffer back only once s knows of the release
// (stashing; see promote). After the first epoch has sized the free lists,
// every checkout pops an existing buffer, and every release, promotion or
// recycle pushes it back within the lists' existing capacity. The
// checked-out lists keep a released or kept buffer's slot (nil) until the
// next recycle, so their length is the round's checkout count, not a
// timing-dependent high-water mark.
//
// Nothing is recycled for callers that never Release or Recycle (tests,
// one-shot collectives): the pool then degrades to tracked plain
// allocation, and received payloads stay valid indefinitely.
type bufPool struct {
	mu    sync.Mutex
	freeF map[int][][]float64
	freeI map[int][][]int
	freeP map[int][][]Payload
	usedF [][]float64 // checked out since the last recycle; nil once released or kept
	usedI [][]int
	usedP [][]Payload
	// lowF[k], lowI[k] and lowP[k] are the fewest idle buffers of class k
	// since the last recycle: that many no checkout of the round needed.
	lowF map[int]int
	lowI map[int]int
	lowP map[int]int

	// A receive arena's pool for one sending peer stashes what its rank
	// releases: stash lists the released buffers (one Payload per
	// Release) since the last recycle, in release order, of which
	// stash[:promoted] are back on the free lists; marks[k] is len(stash)
	// when the rank sent the peer its (k+1)-th payload of the round.
	stashing bool
	stash    []Payload
	promoted int
	marks    []int
}

func newBufPool() *bufPool {
	return &bufPool{
		freeF: make(map[int][][]float64),
		freeI: make(map[int][][]int),
		freeP: make(map[int][][]Payload),
		lowF:  make(map[int]int),
		lowI:  make(map[int]int),
		lowP:  make(map[int]int),
	}
}

// recvArena is a rank's receive arena: every payload the rank receives is
// drawn from from[s], s its sender — cloned into it by the channel fabric's
// sender, read into it by the TCP fabric's reader goroutine for s. A
// released buffer goes back to from[s]'s free lists only once s knows of
// the release — it has received a payload this rank sent after releasing
// it — so from[s] is checked out and refilled in the order of s's own
// sends and receives: the transport calls noteSend at each of its rank's
// sends to s, and promote, with the number of this rank's payloads s had
// received, before each checkout for s's payload. A buffer released after
// the rank's last send to s in a round waits for the round's recycle.
type recvArena struct {
	from []*bufPool // from[s]: the buffers of payloads from peer s
}

func newRecvArena(peers int) *recvArena {
	a := &recvArena{from: make([]*bufPool, peers)}
	for s := range a.from {
		a.from[s] = newBufPool()
		a.from[s].stashing = true
	}
	return a
}

// getFloats checks out a length-n float64 buffer with unspecified contents
// (callers fully overwrite it). n = 0 returns nil, preserving the
// nil-ness conventions of Payload fields.
func (b *bufPool) getFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return take(b.freeF, b.lowF, &b.usedF, n)
}

// getInts checks out a length-n int buffer with unspecified contents.
func (b *bufPool) getInts(n int) []int {
	if n == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return take(b.freeI, b.lowI, &b.usedI, n)
}

// take checks out a length-n buffer from free by best fit, lowering the
// low-water mark of the class it came from, or a new one of n's class, and
// lists it in *used. The caller holds mu.
func take[E any](free map[int][][]E, low map[int]int, used *[][]E, n int) []E {
	k := dense.CapClass(n)
	buf, ok := dense.TakeIdle(free, k)
	if ok {
		c := cap(buf)
		low[c] = min(low[c], len(free[c]))
	} else {
		buf = make([]E, 0, k)
	}
	buf = buf[:n]
	*used = append(*used, buf)
	return buf
}

// getPayloads checks out a length-n zeroed []Payload (collective results
// rely on untouched slots being the zero Payload).
func (b *bufPool) getPayloads(n int) []Payload {
	if n == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	buf := take(b.freeP, b.lowP, &b.usedP, n)
	clear(buf)
	return buf
}

// cloneFloats checks out a copy of x (nil stays nil).
func (b *bufPool) cloneFloats(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := b.getFloats(len(x))
	copy(out, x)
	return out
}

// cloneInts checks out a copy of x (nil stays nil).
func (b *bufPool) cloneInts(x []int) []int {
	if x == nil {
		return nil
	}
	out := b.getInts(len(x))
	copy(out, x)
	return out
}

// largestWords returns the capacity of the largest float or int buffer the
// pool holds, free, stashed or checked out (0 for a nil pool).
func (b *bufPool) largestWords() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var mx int
	b.eachHeld(func(words int) { mx = max(mx, words) })
	return int64(mx)
}

// heldWords returns the summed capacity of the float and int buffers the
// pool holds, free, stashed or checked out (0 for a nil pool). It
// allocates nothing.
func (b *bufPool) heldWords() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var s int64
	b.eachHeld(func(words int) { s += int64(words) })
	return s
}

// eachHeld calls fn with the capacity of every float and int buffer the
// pool holds. The caller holds mu.
func (b *bufPool) eachHeld(fn func(words int)) {
	for _, list := range b.freeF {
		for _, buf := range list {
			fn(cap(buf))
		}
	}
	for _, list := range b.freeI {
		for _, buf := range list {
			fn(cap(buf))
		}
	}
	for _, buf := range b.usedF {
		if buf != nil {
			fn(cap(buf))
		}
	}
	for _, buf := range b.usedI {
		if buf != nil {
			fn(cap(buf))
		}
	}
	for _, p := range b.stash[b.promoted:] {
		if p.Floats != nil {
			fn(cap(p.Floats))
		}
		if p.Ints != nil {
			fn(cap(p.Ints))
		}
	}
}

// release takes back the checked-out buffers behind p's sides, the float
// one filled with NaN and the int one with −1 in a race-detector build
// (dense.PoisonReleased), so a read after release shows in every result it
// reaches: onto the free lists at once, or, in a stashing pool, onto the
// stash until promote. A side this pool did not hand out — nil, another
// pool's, already released or kept — is left alone and returned in the
// result, for the next pool to try. The checked-out lists are searched
// from their end, where the latest checkouts sit; it allocates nothing
// once the lists are sized.
func (b *bufPool) release(p Payload) Payload {
	if b == nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var back Payload
	if buf, ok := checkIn(b.usedF, p.Floats); ok {
		poison(buf, math.NaN())
		back.Floats, p.Floats = buf, nil
	}
	if buf, ok := checkIn(b.usedI, p.Ints); ok {
		poison(buf, -1)
		back.Ints, p.Ints = buf, nil
	}
	switch {
	case back.Floats == nil && back.Ints == nil:
	case b.stashing:
		b.stash = append(b.stash, back)
	default:
		b.putFree(back)
	}
	return p
}

// keep removes the checked-out buffers behind p's sides from the pool for
// good: their reader owns them from then on, and neither release nor
// recycle sees them again. Like release it returns the sides this pool did
// not hand out, and allocates nothing.
func (b *bufPool) keep(p Payload) Payload {
	if b == nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := checkIn(b.usedF, p.Floats); ok {
		p.Floats = nil
	}
	if _, ok := checkIn(b.usedI, p.Ints); ok {
		p.Ints = nil
	}
	return p
}

// noteSend marks the stash at the rank's next send to the pool's peer:
// what it has released so far, the peer will know of once it has received
// that send.
func (b *bufPool) noteSend() {
	b.mu.Lock()
	b.marks = append(b.marks, len(b.stash))
	b.mu.Unlock()
}

// promote returns to the free lists the stashed buffers the peer knows
// were released: those released before the rank's acked-th send to it of
// the round. An ack beyond the sends noted (a corrupt frame) counts as all
// of them.
func (b *bufPool) promote(acked int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	acked = min(acked, len(b.marks))
	if acked <= 0 {
		return
	}
	for ; b.promoted < b.marks[acked-1]; b.promoted++ {
		b.putFree(b.stash[b.promoted])
		b.stash[b.promoted] = Payload{}
	}
}

// checkIn clears the slot of used holding the buffer x lies in — x itself
// or a sub-slice of it, such as ReduceScatter's share of its accumulator —
// and returns that buffer at full capacity; ok is false when there is
// none. The list is searched from its end.
func checkIn[E any](used [][]E, x []E) (buf []E, ok bool) {
	if len(x) == 0 {
		return nil, false
	}
	for i := len(used) - 1; i >= 0; i-- {
		if used[i] != nil && within(used[i], x) {
			buf, used[i] = used[i][:cap(used[i])], nil
			return buf, true
		}
	}
	return nil, false
}

// within reports whether x's first element lies in buf's backing array.
// The pool's buffers live on the heap, which Go does not move, so their
// addresses are stable for the comparison.
func within[E any](buf, x []E) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	return at >= base && at < base+uintptr(cap(buf))*unsafe.Sizeof(x[0])
}

// putFree pushes p's non-nil sides onto their classes' free lists. The
// caller holds mu.
func (b *bufPool) putFree(p Payload) {
	if p.Floats != nil {
		pushFree(b.freeF, p.Floats)
	}
	if p.Ints != nil {
		pushFree(b.freeI, p.Ints)
	}
}

// pushFree pushes buf, at full capacity, onto its class's free list.
func pushFree[E any](free map[int][][]E, buf []E) {
	k := dense.CapClass(cap(buf))
	free[k] = append(free[k], buf[:cap(buf)])
}

// recycle drops the buffers no checkout of the round needed — per class,
// as many as its free list never fell below (low) — then returns every
// checked-out and stashed buffer to the free lists and starts a new round
// of marks. Rounds repeat — every epoch draws what the one before it drew
// — so a round needs no buffer a dropped one would have served, and what
// only the run's set-up drew (an input-layer exchange beyond best fit's
// reach, the transpose exchange) leaves the arena after the first epoch
// that does not draw it. The caller must guarantee no checked-out buffer is still
// referenced — Recycle establishes this with its surrounding barriers.
func (b *bufPool) recycle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range b.stash[b.promoted:] {
		b.putFree(p)
		b.stash[b.promoted+i] = Payload{}
	}
	b.stash, b.promoted, b.marks = b.stash[:0], 0, b.marks[:0]
	b.usedF = restock(b.freeF, b.lowF, b.usedF, math.NaN())
	b.usedI = restock(b.freeI, b.lowI, b.usedI, -1)
	b.usedP = restock(b.freeP, b.lowP, b.usedP, Payload{})
}

// poison fills buf, at full capacity, with v in a race-detector build
// (dense.PoisonReleased), where a read after the buffer went back then
// shows in every result it reaches.
func poison[E any](buf []E, v E) {
	if dense.PoisonReleased {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = v
		}
	}
}

// restock ends a round of one kind of buffer: it drops the low[k] buffers
// at the bottom of each class's free list — checkouts pop from the top,
// so those are the ones the round never took — pushes back every buffer
// still checked out, poisoned with v like a released one, starts the next
// round's low-water marks, and returns the emptied checked-out list.
func restock[E any](free map[int][][]E, low map[int]int, used [][]E, v E) [][]E {
	for k, list := range free {
		n := copy(list, list[min(low[k], len(list)):])
		clear(list[n:])
		free[k] = list[:n]
	}
	for i, buf := range used {
		if buf != nil {
			poison(buf, v)
			pushFree(free, buf)
		}
		used[i] = nil
	}
	for k, list := range free {
		low[k] = len(list)
	}
	return used[:0]
}

// release takes p's sides back into whichever peer's pool handed them out
// and returns the sides none did (nil-safe, like every recvArena method).
func (a *recvArena) release(p Payload) Payload {
	if a == nil {
		return p
	}
	for _, b := range a.from {
		if p.Floats == nil && p.Ints == nil {
			break
		}
		p = b.release(p)
	}
	return p
}

// keep hands p's sides over to the caller; see bufPool.keep.
func (a *recvArena) keep(p Payload) Payload {
	if a == nil {
		return p
	}
	for _, b := range a.from {
		if p.Floats == nil && p.Ints == nil {
			break
		}
		p = b.keep(p)
	}
	return p
}

// recycle recycles every peer's pool.
func (a *recvArena) recycle() {
	for _, b := range a.from {
		b.recycle()
	}
}

// largestWords returns the largest buffer any peer's pool holds.
func (a *recvArena) largestWords() int64 {
	if a == nil {
		return 0
	}
	var mx int64
	for _, b := range a.from {
		mx = max(mx, b.largestWords())
	}
	return mx
}

// heldWords returns the words every peer's pool holds. It allocates
// nothing.
func (a *recvArena) heldWords() int64 {
	if a == nil {
		return 0
	}
	var s int64
	for _, b := range a.from {
		s += b.heldWords()
	}
	return s
}
