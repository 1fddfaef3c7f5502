package comm

import (
	"sync"

	"repro/internal/dense"
)

// bufPool is the arena behind the fabric's transient buffers: collective
// accumulators, the []Payload result slices of gather-style operations,
// and — as a transport's arena — the channel fabric's send clones and the
// buffers a TCPTransport's reader goroutines read incoming frames into.
// Every rank has two, on either fabric: its Comm's pool and its
// transport's arena. Buffers are keyed by capacity class (dense.CapClass,
// the Workspace's eight classes per octave, so a buffer is at most 1/8
// larger than the largest payload it carried), checked out under a mutex
// (a rank and its reader goroutines may allocate at once) by the
// Workspace's bounded best fit (dense.TakeIdle: its own class, else the
// smallest idle one of at most twice its class — so the input layer's
// wide exchanges serve the epochs' narrower ones instead of staying
// resident beside them), and recycled all at once by Comm.Recycle — the
// point where every rank has agreed, via barrier, that no buffer handed
// out since the last recycle is still referenced. Unlike the workspace,
// the pool has no per-buffer release: a received payload's lifetime is
// its reader's business, so the fabric holds an epoch's payloads until its
// boundary.
//
// Steady state is allocation-free: after the first epochs have sized the
// free lists, every checkout pops an existing buffer and every recycle
// pushes it back within the lists' existing capacity.
//
// Nothing is recycled for callers that never Recycle (tests,
// one-shot collectives): the pool then degrades to tracked plain
// allocation, and received payloads stay valid indefinitely.
type bufPool struct {
	mu    sync.Mutex
	freeF map[int][][]float64
	freeI map[int][][]int
	freeP map[int][][]Payload
	usedF [][]float64
	usedI [][]int
	usedP [][]Payload
}

func newBufPool() *bufPool {
	return &bufPool{
		freeF: make(map[int][][]float64),
		freeI: make(map[int][][]int),
		freeP: make(map[int][][]Payload),
	}
}

// getFloats checks out a length-n float64 buffer with unspecified contents
// (callers fully overwrite it). n = 0 returns nil, preserving the
// nil-ness conventions of Payload fields.
func (b *bufPool) getFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	k := dense.CapClass(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := dense.TakeIdle(b.freeF, k)
	if !ok {
		buf = make([]float64, 0, k)
	}
	buf = buf[:n]
	b.usedF = append(b.usedF, buf)
	return buf
}

// getInts checks out a length-n int buffer with unspecified contents.
func (b *bufPool) getInts(n int) []int {
	if n == 0 {
		return nil
	}
	k := dense.CapClass(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := dense.TakeIdle(b.freeI, k)
	if !ok {
		buf = make([]int, 0, k)
	}
	buf = buf[:n]
	b.usedI = append(b.usedI, buf)
	return buf
}

// getPayloads checks out a length-n zeroed []Payload (collective results
// rely on untouched slots being the zero Payload).
func (b *bufPool) getPayloads(n int) []Payload {
	if n == 0 {
		return nil
	}
	k := dense.CapClass(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	buf, ok := dense.TakeIdle(b.freeP, k)
	if !ok {
		buf = make([]Payload, 0, k)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = Payload{}
	}
	b.usedP = append(b.usedP, buf)
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
// pool holds, free or checked out (0 for a nil pool).
func (b *bufPool) largestWords() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var mx int
	for k, list := range b.freeF {
		if len(list) > 0 {
			mx = max(mx, k)
		}
	}
	for k, list := range b.freeI {
		if len(list) > 0 {
			mx = max(mx, k)
		}
	}
	for _, buf := range b.usedF {
		mx = max(mx, cap(buf))
	}
	for _, buf := range b.usedI {
		mx = max(mx, cap(buf))
	}
	return int64(mx)
}

// heldWords returns the summed capacity of the float and int buffers the
// pool holds, free or checked out (0 for a nil pool). It allocates nothing.
func (b *bufPool) heldWords() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var s int64
	for _, list := range b.freeF {
		for _, buf := range list {
			s += int64(cap(buf))
		}
	}
	for _, list := range b.freeI {
		for _, buf := range list {
			s += int64(cap(buf))
		}
	}
	for _, buf := range b.usedF {
		s += int64(cap(buf))
	}
	for _, buf := range b.usedI {
		s += int64(cap(buf))
	}
	return s
}

// recycle returns every checked-out buffer to the free lists. The caller
// must guarantee no checked-out buffer is still referenced — Recycle
// establishes this with its surrounding barriers.
func (b *bufPool) recycle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, buf := range b.usedF {
		k := dense.CapClass(cap(buf))
		b.freeF[k] = append(b.freeF[k], buf[:cap(buf)])
		b.usedF[i] = nil
	}
	b.usedF = b.usedF[:0]
	for i, buf := range b.usedI {
		k := dense.CapClass(cap(buf))
		b.freeI[k] = append(b.freeI[k], buf[:cap(buf)])
		b.usedI[i] = nil
	}
	b.usedI = b.usedI[:0]
	for i, buf := range b.usedP {
		k := dense.CapClass(cap(buf))
		b.freeP[k] = append(b.freeP[k], buf[:cap(buf)])
		b.usedP[i] = nil
	}
	b.usedP = b.usedP[:0]
}
