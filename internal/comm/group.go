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

// GlobalRank translates a group index to a cluster rank.
func (g *Group) GlobalRank(i int) int { return g.ranks[i] }

// charge applies the α–β model cost of one collective step to this member.
// A group of one has no network to cross — §IV's bounds all carry a
// (q−1)/q factor — so its collectives charge nothing.
func (g *Group) charge(cat Category, msgs, words int64) {
	if len(g.ranks) == 1 {
		return
	}
	g.comm.Charge(cat, msgs, words)
}

// Broadcast distributes root's payload to all members and returns it.
// Non-root members pass an ignored payload (conventionally the zero value).
// Physical transport uses a binomial tree; every member is charged
// α·⌈lg q⌉ + β·m per the pipelined-broadcast bound. It is IBroadcast
// joined immediately, so the span blocks the member's timeline.
func (g *Group) Broadcast(root int, p Payload, cat Category) Payload {
	return g.IBroadcast(root, p, cat).Wait()
}

// Reduce performs an elementwise float64 sum onto root and returns the
// result at root (nil elsewhere). All members must pass slices of equal
// length.
func (g *Group) Reduce(root int, x []float64, cat Category) []float64 {
	q := len(g.ranks)
	if root < 0 || root >= q {
		panic(fmt.Sprintf("comm: reduce root %d out of range for group of %d", root, q))
	}
	defer g.comm.meterDone(g.comm.meterStart())
	g.charge(cat, lg2(q), int64(len(x)))
	return g.reduce(root, x)
}

// AllReduce sums x elementwise across the group and returns the result on
// every member. It is a Reduce followed by a Broadcast and is charged as
// both, α·2⌈lg q⌉ + β·2m — twice the α lg P + β m the paper's bounds use
// (costmodel.OneDHaloDenseWords carries the factor 2).
func (g *Group) AllReduce(x []float64, cat Category) []float64 {
	acc := g.Reduce(0, x, cat)
	var p Payload
	if g.me == 0 {
		p = Payload{Floats: acc}
	}
	out := g.Broadcast(0, p, cat)
	return out.Floats
}

// ReduceScatter sums x elementwise across the group, then scatters the
// result so member i receives the slice with offsets
// [sum(counts[:i]), sum(counts[:i+1])). Charged per the paper's
// α lg P + β·len(x) bound (§IV-A-3).
func (g *Group) ReduceScatter(x []float64, counts []int, cat Category) []float64 {
	q := len(g.ranks)
	if len(counts) != q {
		panic(fmt.Sprintf("comm: ReduceScatter needs %d counts, got %d", q, len(counts)))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(x) {
		panic(fmt.Sprintf("comm: ReduceScatter counts sum to %d, data has %d", total, len(x)))
	}
	defer g.comm.meterDone(g.comm.meterStart())
	// Physical: reduce to member 0, then scatter slices. Charging below
	// replaces the naive cost with the paper's bound.
	acc := g.reduce(0, x)
	g.charge(cat, lg2(q), int64(len(x)))
	if q == 1 {
		return acc
	}
	if g.me == 0 {
		off := counts[0]
		for i := 1; i < q; i++ {
			g.comm.sendRaw(g.ranks[i], Payload{Floats: acc[off : off+counts[i]]})
			off += counts[i]
		}
		return g.comm.pool.cloneFloats(acc[:counts[0]])
	}
	return g.comm.recvRaw(g.ranks[0]).Floats
}

// reduce is the binomial-tree sum onto root — receive from children, then
// send to the parent — without model charging: Reduce and ReduceScatter
// charge their own bounds.
func (g *Group) reduce(root int, x []float64) []float64 {
	q := len(g.ranks)
	acc := g.comm.pool.cloneFloats(x)
	if q == 1 {
		return acc
	}
	vrank := (g.me - root + q) % q
	for mask := 1; mask < nextPow2(q); mask <<= 1 {
		if vrank&(mask-1) != 0 {
			continue
		}
		if vrank&mask == 0 {
			child := vrank | mask
			if child < q {
				recv := g.comm.recvRaw(g.ranks[(child+root)%q])
				if len(recv.Floats) != len(acc) {
					panic(fmt.Sprintf("comm: reduce length mismatch: %d vs %d", len(recv.Floats), len(acc)))
				}
				for i, v := range recv.Floats {
					acc[i] += v
				}
			}
		} else {
			parent := vrank &^ mask
			g.comm.sendRaw(g.ranks[(parent+root)%q], Payload{Floats: acc})
			return nil
		}
	}
	return acc
}

// AllGather collects each member's payload and returns them ordered by
// group index. Charged α·⌈lg q⌉ + β·(total words received), the standard
// large-message all-gather bound. It is IAllGather joined immediately.
//
// Physically the parts gather onto member 0 and broadcast back one by one
// to keep payload boundaries; the charge is the single all-gather bound.
func (g *Group) AllGather(p Payload, cat Category) []Payload {
	return g.IAllGather(p, cat).WaitAll()
}

// Gather collects payloads onto root, ordered by group index (nil
// elsewhere). Every member is charged α·⌈lg q⌉ + β·(its contribution).
func (g *Group) Gather(root int, p Payload, cat Category) []Payload {
	defer g.comm.meterDone(g.comm.meterStart())
	g.charge(cat, lg2(len(g.ranks)), p.Words())
	return g.gatherUncharged(root, p)
}

func (g *Group) gatherUncharged(root int, p Payload) []Payload {
	q := len(g.ranks)
	if q == 1 {
		out := g.comm.pool.getPayloads(1)
		out[0] = p
		return out
	}
	if g.me == root {
		out := g.comm.pool.getPayloads(q)
		out[root] = p
		for i := 0; i < q; i++ {
			if i != root {
				out[i] = g.comm.recvRaw(g.ranks[i])
			}
		}
		return out
	}
	g.comm.sendRaw(g.ranks[root], p)
	return nil
}

func (g *Group) broadcastUncharged(root int, p Payload) Payload {
	q := len(g.ranks)
	if q == 1 {
		return p
	}
	vrank := (g.me - root + q) % q
	if vrank != 0 {
		src := g.ranks[((vrank-(vrank&-vrank))+root)%q]
		p = g.comm.recvRaw(src)
	}
	for mask := nextPow2(q) >> 1; mask > 0; mask >>= 1 {
		if vrank&(mask-1) == 0 && vrank&mask == 0 {
			child := vrank | mask
			if child < q {
				g.comm.sendRaw(g.ranks[(child+root)%q], p)
			}
		}
	}
	return p
}

// AllToAll exchanges parts[i] to member i and returns the parts received,
// ordered by group index. parts[me] is returned in place. Charged
// α·(q-1) + β·(words sent to others), the pairwise-exchange bound.
func (g *Group) AllToAll(parts []Payload, cat Category) []Payload {
	q := len(g.ranks)
	if len(parts) != q {
		panic(fmt.Sprintf("comm: AllToAll needs %d parts, got %d", q, len(parts)))
	}
	defer g.comm.meterDone(g.comm.meterStart())
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
