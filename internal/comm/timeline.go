package comm

import "fmt"

// This file implements the non-blocking side of the fabric: asynchronous
// α–β charges whose spans overlap subsequent compute, and the Request
// handle that joins them back into the rank's timeline. It is the model
// analog of NCCL's asynchronous collectives, which CAGNET's Summit
// implementation uses to hide dense broadcasts behind local SpMM (§V–VI);
// the double-buffered trainer pipelines in internal/core are built on it.
//
// Timeline semantics (see the Ledger doc): an async charge reserves the
// network link starting at max(clock, netBusy) — in-flight collectives
// queue behind each other on the rank's single link — but leaves the clock
// where it is. Compute charged before the matching Wait runs concurrently
// with the span; Wait advances the clock to the span's end if compute has
// not already covered it. Per pipeline stage the rank therefore pays
// max(compute, communication) instead of their sum.

// Request is a handle on an in-flight asynchronous operation. It is issued
// by one of the I-collectives (IBroadcast, IAllGather, IExchangeIndexed)
// and joined with Wait or WaitAll, which advance the
// rank's timeline clock past the operation's span and return its result.
//
// Requests are owned by the issuing rank, pooled per Comm, and recycled by
// Recycle (EpochDone runs it): do not retain one across it. Waiting twice is
// harmless (the second wait is a no-op returning the same result); leaving
// a request unwaited at Recycle panics, since its span would otherwise
// vanish from the timeline.
type Request struct {
	comm        *Comm
	start       float64 // span start on the network link
	ready       float64 // span end: when the data is modeled to arrive
	compAtIssue float64 // ledger compTime snapshot, for hidden accounting
	waited      bool
	payload     Payload
	payloads    []Payload
}

// Wait joins the operation into the timeline and returns its single-payload
// result (the zero Payload for multi-payload operations; use WaitAll).
func (r *Request) Wait() Payload {
	r.complete()
	return r.payload
}

// WaitAll joins the operation into the timeline and returns its per-member
// payload list (nil for single-payload operations; use Wait).
func (r *Request) WaitAll() []Payload {
	r.complete()
	return r.payloads
}

// complete advances the clock past the span (idempotently) and accounts the
// hidden portion: whatever part of the span the clock had already covered
// with compute by the time of the wait.
func (r *Request) complete() {
	if r.waited {
		return
	}
	r.waited = true
	l := r.comm.ledger
	// Hidden portion: how much of [start, ready] the clock had already
	// covered by the time of the wait — capped by the compute actually
	// charged since initiation, so a synchronous transfer dragging the
	// clock while this span was in flight (the rank blocked on the NIC,
	// not computing) claims no overlap credit.
	covered := l.clock
	if r.ready < covered {
		covered = r.ready
	}
	covered -= r.start
	if compSince := l.compTime - r.compAtIssue; covered > compSince {
		covered = compSince
	}
	if covered > 0 {
		l.hidden += covered
	}
	if r.ready > l.clock {
		l.clock = r.ready
	}
}

// takeRequest checks a request out of the rank's arena with the given span,
// clearing any result left by a previous epoch's use.
func (c *Comm) takeRequest(start, ready float64) *Request {
	var r *Request
	if c.reqNext < len(c.reqs) {
		r = c.reqs[c.reqNext]
	} else {
		r = &Request{comm: c}
		c.reqs = append(c.reqs, r)
	}
	c.reqNext++
	r.start, r.ready = start, ready
	r.compAtIssue = c.ledger.compTime
	r.waited = false
	r.payload = Payload{}
	r.payloads = nil
	return r
}

// recycleRequests returns every request issued since the last Recycle to
// the arena, panicking on any that was never waited (its span would be
// lost).
func (c *Comm) recycleRequests() {
	for i, r := range c.reqs[:c.reqNext] {
		if !r.waited {
			panic(fmt.Sprintf("comm: rank %d reached Recycle with request %d unwaited", c.rank, i))
		}
		r.payload = Payload{}
		r.payloads = nil
	}
	c.reqNext = 0
}

// chargeAsync adds an α–β charge to the open step exactly as charge does,
// but its span overlaps subsequent compute: the clock does not advance
// until the returned Request is waited on.
func (c *Comm) chargeAsync(cat Category, msgs, words int64) *Request {
	start := c.chargeLink(cat, msgs, words)
	return c.takeRequest(start, c.ledger.netBusy)
}

// completedRequest returns a request whose span is empty: operations that
// charge nothing (single-member broadcasts and all-gathers) still hand back
// a Request so call sites stay uniform.
func (c *Comm) completedRequest() *Request {
	return c.takeRequest(c.ledger.clock, c.ledger.clock)
}

// IBroadcast is the non-blocking Broadcast: the payload moves through the
// fabric immediately (simulated transport is instantaneous) and the
// member's α·⌈lg q⌉ + β·m charge becomes an in-flight span. Wait returns
// the broadcast payload. Charges and results are identical to Broadcast —
// Broadcast is IBroadcast followed by an immediate Wait.
func (g *Group) IBroadcast(root int, p Payload, cat Category) *Request {
	q := len(g.ranks)
	if root < 0 || root >= q {
		panic(fmt.Sprintf("comm: broadcast root %d out of range for group of %d", root, q))
	}
	if q == 1 {
		r := g.comm.completedRequest()
		r.payload = p
		return r
	}
	defer g.comm.meterDone(g.comm.meterStart("IBroadcast", q))
	// Binomial tree rooted at root: receive from the parent, then send to
	// the children, farthest first.
	vrank := (g.me - root + q) % q
	if vrank != 0 {
		p = g.comm.recvRaw(g.ranks[((vrank-(vrank&-vrank))+root)%q])
	}
	for mask := nextPow2(q) >> 1; mask > 0; mask >>= 1 {
		if vrank&(mask-1) == 0 && vrank&mask == 0 {
			if child := vrank | mask; child < q {
				g.comm.sendRaw(g.ranks[(child+root)%q], p)
			}
		}
	}
	r := g.comm.chargeAsync(cat, lg2(q), p.Words())
	r.payload = p
	return r
}

// IAllGather is the non-blocking AllGather; WaitAll returns the payloads
// ordered by group index, the caller's own slot being p itself. Charges and
// results are identical to AllGather.
//
// Physically it is a ring: at step s = 1…q−1 each member sends its right
// neighbour the part it received at step s−1 — its own at step 1 — and
// receives the next from its left neighbour, so every part crosses q−1
// links once and a member sends every part but its right neighbour's.
func (g *Group) IAllGather(p Payload, cat Category) *Request {
	q := len(g.ranks)
	out := g.comm.pool.getPayloads(q)
	out[g.me] = p
	if q == 1 {
		r := g.comm.completedRequest()
		r.payloads = out
		return r
	}
	defer g.comm.meterDone(g.comm.meterStart("IAllGather", q))
	right, left := g.ranks[(g.me+1)%q], g.ranks[(g.me-1+q)%q]
	for s := 0; s < q-1; s++ {
		g.comm.sendRaw(right, out[(g.me-s+q)%q])
		out[(g.me-s-1+q)%q] = g.comm.recvRaw(left)
	}
	var words int64
	for _, part := range out {
		words += part.Words()
	}
	r := g.comm.chargeAsync(cat, lg2(q), words)
	r.payloads = out
	return r
}

// IExchangeIndexed is the non-blocking ExchangeIndexed — the asynchronous
// halo fetch of §IV-A-1. WaitAll returns the received payloads indexed by
// group member. Charges and results are identical to ExchangeIndexed.
func (g *Group) IExchangeIndexed(parts []Payload, from []bool, cat Category) *Request {
	q := len(g.ranks)
	if len(parts) != q || len(from) != q {
		panic(fmt.Sprintf("comm: ExchangeIndexed needs %d parts and flags, got %d and %d", q, len(parts), len(from)))
	}
	if parts[g.me].Words() != 0 || from[g.me] {
		panic(fmt.Sprintf("comm: ExchangeIndexed member %d exchanging with itself", g.me))
	}
	defer g.comm.meterDone(g.comm.meterStart("IExchangeIndexed", q))
	out := g.comm.pool.getPayloads(q)
	// All sends complete before the receives (as in AllToAll): each pair
	// moves at most one message per call, well under the buffered mailbox
	// depth, so a simultaneous send+receive between a pair cannot
	// rendezvous-deadlock and no helper goroutine is needed.
	for i := 1; i < q; i++ {
		dst := (g.me + i) % q
		if parts[dst].Words() > 0 {
			g.comm.sendRaw(g.ranks[dst], parts[dst])
		}
	}
	var msgs, words int64
	for i := 1; i < q; i++ {
		src := (g.me - i + q) % q
		if from[src] {
			out[src] = g.comm.recvRaw(g.ranks[src])
			msgs++
			words += out[src].Words()
		}
	}
	r := g.comm.chargeAsync(cat, msgs, words)
	r.payloads = out
	return r
}
