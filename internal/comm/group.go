package comm

import "fmt"

// Group is a sub-communicator over an ordered subset of cluster ranks, like
// an MPI communicator. All collective operations are SPMD over the group:
// every member must call the same operation with compatible arguments.
//
// Model-time charging follows the α–β bounds the paper uses (§III-A,
// citing Chan et al.): a collective over q ranks moving m words charges
// every member α·⌈lg q⌉ + β·m.
type Group struct {
	comm  *Comm
	ranks []int
	me    int // index of comm.rank within ranks
}

// World returns the group of all ranks. The group is built once per Comm
// and cached: trainers call World on every epoch, and group construction
// must not show up in the steady-state allocation profile.
func (c *Comm) World() *Group {
	if c.world == nil {
		ranks := make([]int, c.Size())
		for i := range ranks {
			ranks[i] = i
		}
		c.world = c.NewGroup(ranks)
	}
	return c.world
}

// NewGroup builds a group from an ordered list of cluster ranks; the
// calling rank must be a member.
func (c *Comm) NewGroup(ranks []int) *Group {
	me := -1
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= c.Size() {
			panic(fmt.Sprintf("comm: group rank %d out of range", r))
		}
		if seen[r] {
			panic(fmt.Sprintf("comm: duplicate rank %d in group", r))
		}
		seen[r] = true
		if r == c.rank {
			me = i
		}
	}
	if me == -1 {
		panic(fmt.Sprintf("comm: rank %d building group %v it does not belong to", c.rank, ranks))
	}
	return &Group{comm: c, ranks: ranks, me: me}
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Rank returns the calling rank's index within the group.
func (g *Group) Rank() int { return g.me }

// charge applies the α–β model cost of one collective step to this member.
// A group of one has no network to cross — §IV's bounds all carry a
// (q−1)/q factor — so its collectives charge nothing.
func (g *Group) charge(cat Category, msgs, words int64) {
	if len(g.ranks) == 1 {
		return
	}
	g.comm.charge(cat, msgs, words)
}

// Broadcast distributes root's payload to all members and returns it.
// Non-root members pass an ignored payload (conventionally the zero value).
// Physical transport uses a binomial tree; every member is charged
// α·⌈lg q⌉ + β·m per the pipelined-broadcast bound. It is IBroadcast
// joined immediately, so the span blocks the member's timeline.
func (g *Group) Broadcast(root int, p Payload, cat Category) Payload {
	return g.IBroadcast(root, p, cat).Wait()
}

// AllReduce sums x elementwise across the group and returns the result on
// every member. Physically it is recursive doubling (Thakur, Rabenseifner
// and Gropp 2005): ⌈lg q⌉ swaps of the whole vector, each member adding its
// partner's partial to its own as lower half + upper half — the order of a
// binomial reduce onto member 0, so every member ends with that reduce's
// bits. Each received partial goes back to the fabric once it is added;
// the result is a buffer of the rank's pool, for the caller to Release. It
// is charged as the Reduce and Broadcast it replaced, in two steps,
// α·2⌈lg q⌉ + β·2m — twice the α lg P + β m the paper's bounds use
// (costmodel.OneDHaloDenseWords carries the factor 2).
func (g *Group) AllReduce(x []float64, cat Category) []float64 {
	q := len(g.ranks)
	defer g.comm.meterDone(g.comm.meterStart("AllReduce", q))
	g.charge(cat, lg2(q), int64(len(x)))
	g.charge(cat, lg2(q), int64(len(x)))
	return g.allReduce(x)
}

// allReduce is AllReduce's schedule, uncharged. Before level m a member
// holds the partial sum of its aligned block of m members; it swaps that
// with member me^m, whose block is the other half of their aligned block
// of 2m, and both add lower + upper. When q is not a power of two the
// upper block may be short or missing: a missing one leaves the partial as
// it is, and a lower member without a partner receives the upper partial
// from the upper member at its offset modulo the upper block's size, which
// holds the same bits as every member of that block.
func (g *Group) allReduce(x []float64) []float64 {
	q := len(g.ranks)
	acc := g.comm.pool.cloneFloats(x)
	for m := 1; m < q; m <<= 1 {
		lo := g.me &^ (2*m - 1) // the lower block's first member
		hi := lo + m            // the upper block's first member
		if hi >= q {
			continue
		}
		n := min(q-hi, m) // the upper block's size
		var src int
		if g.me < hi {
			if g.me+m < q {
				g.comm.sendRaw(g.ranks[g.me+m], Payload{Floats: acc})
			}
			src = hi + (g.me-lo)%n
		} else {
			for dst := g.me - m; dst < hi; dst += n {
				g.comm.sendRaw(g.ranks[dst], Payload{Floats: acc})
			}
			src = g.me - m
		}
		recv := g.comm.recvRaw(g.ranks[src])
		addHalves(acc, recv.Floats, g.me < hi)
		g.comm.Release(recv)
	}
	return acc
}

// addHalves sets acc to lower + upper elementwise, where acc is this
// member's partial and lower says whether it is the lower half's: the order
// a binomial reduce adds a child's partial to its parent's.
func addHalves(acc, recv []float64, lower bool) {
	if len(recv) != len(acc) {
		panic(fmt.Sprintf("comm: reduce length mismatch: %d vs %d", len(recv), len(acc)))
	}
	if lower {
		for i, v := range recv {
			acc[i] += v
		}
		return
	}
	for i, v := range recv {
		acc[i] = v + acc[i]
	}
}

// ReduceScatter sums x elementwise across the group, then scatters the
// result so member i receives the slice with offsets
// [sum(counts[:i]), sum(counts[:i+1])). Charged per the paper's
// α lg P + β·len(x) bound (§IV-A-3).
//
// Physically, at a power-of-two q it is recursive halving with ascending
// masks: at mask m a member keeps the slices k with k&m == me&m, sends the
// rest of those it holds to member me^m, and adds what it receives as
// lower half + upper half, so slice k reaches member k summed in the
// binomial reduce's order and a member sends len(x) − counts[me] words.
// At any other q it is AllReduce's schedule, keeping its own slice.
func (g *Group) ReduceScatter(x []float64, counts []int, cat Category) []float64 {
	q := len(g.ranks)
	if len(counts) != q {
		panic(fmt.Sprintf("comm: ReduceScatter needs %d counts, got %d", q, len(counts)))
	}
	total, off := 0, 0
	for i, c := range counts {
		if i == g.me {
			off = total
		}
		total += c
	}
	if total != len(x) {
		panic(fmt.Sprintf("comm: ReduceScatter counts sum to %d, data has %d", total, len(x)))
	}
	defer g.comm.meterDone(g.comm.meterStart("ReduceScatter", q))
	g.charge(cat, lg2(q), int64(len(x)))
	if q&(q-1) != 0 {
		return g.allReduce(x)[off : off+counts[g.me]]
	}
	acc := g.comm.pool.cloneFloats(x)
	for m := 1; m < q; m <<= 1 {
		peer, mask := g.me^m, 2*m-1
		sendN, keepN := 0, 0
		for k, c := range counts {
			switch k & mask {
			case peer & mask:
				sendN += c
			case g.me & mask:
				keepN += c
			}
		}
		send, at := g.comm.pool.getFloats(sendN), 0
		for k, o := 0, 0; k < q; o, k = o+counts[k], k+1 {
			if k&mask == peer&mask {
				at += copy(send[at:], acc[o:o+counts[k]])
			}
		}
		g.comm.sendRaw(g.ranks[peer], Payload{Floats: send})
		g.comm.Release(Payload{Floats: send})
		got := g.comm.recvRaw(g.ranks[peer])
		recv := got.Floats
		if len(recv) != keepN {
			panic(fmt.Sprintf("comm: reduce length mismatch: %d vs %d", len(recv), keepN))
		}
		at = 0
		for k, o := 0, 0; k < q; o, k = o+counts[k], k+1 {
			if k&mask == g.me&mask {
				addHalves(acc[o:o+counts[k]], recv[at:at+counts[k]], g.me&m == 0)
				at += counts[k]
			}
		}
		g.comm.Release(got)
	}
	return acc[off : off+counts[g.me]]
}

// AllGather collects each member's payload and returns them ordered by
// group index; the caller's own slot is p itself, as in AllToAll. Charged
// α·⌈lg q⌉ + β·(total words received), the standard large-message
// all-gather bound. It is IAllGather joined immediately.
func (g *Group) AllGather(p Payload, cat Category) []Payload {
	return g.IAllGather(p, cat).WaitAll()
}

// Gather collects payloads onto root, ordered by group index (nil
// elsewhere). Every member is charged α·⌈lg q⌉ + β·(its contribution).
func (g *Group) Gather(root int, p Payload, cat Category) []Payload {
	q := len(g.ranks)
	defer g.comm.meterDone(g.comm.meterStart("Gather", q))
	g.charge(cat, lg2(q), p.Words())
	if g.me != root {
		g.comm.sendRaw(g.ranks[root], p)
		return nil
	}
	out := g.comm.pool.getPayloads(q)
	out[root] = p
	for i := 0; i < q; i++ {
		if i != root {
			out[i] = g.comm.recvRaw(g.ranks[i])
		}
	}
	return out
}

// AllToAll exchanges parts[i] to member i and returns the parts received,
// ordered by group index. parts[me] is returned in place. Charged
// α·(q-1) + β·(words sent to others), the pairwise-exchange bound.
func (g *Group) AllToAll(parts []Payload, cat Category) []Payload {
	q := len(g.ranks)
	if len(parts) != q {
		panic(fmt.Sprintf("comm: AllToAll needs %d parts, got %d", q, len(parts)))
	}
	defer g.comm.meterDone(g.comm.meterStart("AllToAll", q))
	var sendWords int64
	for i, p := range parts {
		if i != g.me {
			sendWords += p.Words()
		}
	}
	g.charge(cat, int64(q-1), sendWords)
	out := g.comm.pool.getPayloads(q)
	out[g.me] = parts[g.me]
	// Pairwise exchange, rotated so rank pairs stay staggered. All sends
	// complete before the receives: each (src, dst) pair moves exactly one
	// message per call, and the buffered mailboxes absorb it, so sending
	// first cannot rendezvous-deadlock and needs no helper goroutine.
	for i := 1; i < q; i++ {
		dst := (g.me + i) % q
		g.comm.sendRaw(g.ranks[dst], parts[dst])
	}
	for i := 1; i < q; i++ {
		src := (g.me - i + q) % q
		out[src] = g.comm.recvRaw(g.ranks[src])
	}
	return out
}

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
