package comm

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file property-tests the interval-timeline ledger: seeded random
// programs of IBroadcast/IAllGather/ChargeTime/Wait interleavings are
// executed twice — once asynchronously as generated, once with every
// collective waited immediately (bulk-synchronous) — and the resulting
// ledgers must satisfy the timeline algebra, in the terms of a rank's
// Reading:
//
//	Elapsed  == critical path: ≥ compute, ≥ comm, ≤ Bulk
//	Elapsed + Hidden ≥ Bulk (every span second is on the
//	    clock or credited as hidden; the credit can over-count — the
//	    per-request cap is compute-since-issue, not the exact interval
//	    intersection — but never under-counts, so Elapsed never exceeds
//	    the bulk-synchronous sum minus what was genuinely hidden)
//	0 ≤ Hidden ≤ comm time (the comm categories' seconds)
//	async Elapsed ≤ sync Elapsed (pipelining never loses)
//	sync twin: Elapsed == Bulk, Hidden == 0
//	traffic (words, msgs) and payload contents identical in both modes
//
// All quantities are modeled α–β arithmetic — no wall clock — so every
// run of a given seed is identical.

// propOp is one step of a random timeline program.
type propOp struct {
	kind  int     // 0 bcast, 1 allgather, 2 compute, 3 wait
	root  int     // bcast root
	size  int     // payload floats
	dt    float64 // compute seconds
	cat   Category
	pick  int // which outstanding request a wait joins
	value float64
}

// genProgram builds a deterministic op sequence for a cluster of p
// ranks. Every rank replays the same sequence, keeping collectives
// aligned.
func genProgram(seed int64, p int) []propOp {
	rng := rand.New(rand.NewSource(seed))
	cats := []Category{CatDenseComm, CatSparseComm, CatTranspose}
	n := 8 + rng.Intn(24)
	ops := make([]propOp, n)
	for i := range ops {
		ops[i] = propOp{
			kind: rng.Intn(4),
			root: rng.Intn(p),
			size: rng.Intn(64),
			dt:   rng.Float64() * 1e-3,
			cat:  cats[rng.Intn(len(cats))],
			pick: rng.Int(),
			// Integer-valued payloads keep the cross-mode checksums exact
			// whatever order the waits consume them in.
			value: float64(rng.Intn(64)),
		}
	}
	return ops
}

// runProgram executes the program on a fresh cluster. With syncMode,
// every collective is waited immediately (bulk-synchronous execution);
// otherwise waits happen at the generated points, with any leftovers
// joined before EpochDone. It returns the cluster (for ledgers), the
// per-rank compute seconds charged, and a per-rank checksum of every
// payload received, for cross-mode comparison.
func runProgram(t *testing.T, ops []propOp, p int, syncMode bool) (*Cluster, []float64, []float64) {
	t.Helper()
	cluster := NewCluster(p, CostParams{Alpha: 1e-6, Beta: 2e-9})
	compute, checksum := runProgramOn(t, cluster, ops, syncMode)
	return cluster, compute, checksum
}

// runProgramOn executes the program on an existing cluster (whose
// ledgers the caller has reset), so reuse across epochs exercises the
// request-recycling path.
func runProgramOn(t *testing.T, cluster *Cluster, ops []propOp, syncMode bool) ([]float64, []float64) {
	t.Helper()
	p := cluster.Size()
	compute := make([]float64, p)
	checksum := make([]float64, p)
	err := cluster.Run(func(c *Comm) error {
		world := c.World()
		var outstanding []*Request
		drain := func(r *Request) {
			for _, pl := range r.WaitAll() {
				for _, v := range pl.Floats {
					checksum[c.Rank()] += v
				}
			}
			for _, v := range r.Wait().Floats {
				checksum[c.Rank()] += v
			}
		}
		for _, op := range ops {
			switch op.kind {
			case 0:
				payload := Payload{}
				if c.Rank() == op.root {
					payload.Floats = make([]float64, op.size)
					for i := range payload.Floats {
						payload.Floats[i] = op.value + float64(i)
					}
				}
				r := world.IBroadcast(op.root, payload, op.cat)
				if syncMode {
					drain(r)
				} else {
					outstanding = append(outstanding, r)
				}
			case 1:
				payload := Payload{Floats: []float64{op.value, float64(c.Rank())}}
				r := world.IAllGather(payload, op.cat)
				if syncMode {
					drain(r)
				} else {
					outstanding = append(outstanding, r)
				}
			case 2:
				c.ChargeTime(CatSpMM, op.dt)
				compute[c.Rank()] += op.dt
			case 3:
				if len(outstanding) > 0 {
					i := op.pick % len(outstanding)
					r := outstanding[i]
					outstanding = append(outstanding[:i], outstanding[i+1:]...)
					drain(r)
				}
			}
		}
		for _, r := range outstanding {
			drain(r)
		}
		c.EpochDone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return compute, checksum
}

func TestTimelinePropertyRandomPrograms(t *testing.T) {
	const eps = 1e-9
	for seed := int64(1); seed <= 40; seed++ {
		for _, p := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("seed%d_p%d", seed, p), func(t *testing.T) {
				ops := genProgram(seed, p)
				async, comp, asyncSum := runProgram(t, ops, p, false)
				sync, _, syncSum := runProgram(t, ops, p, true)

				for rank := 0; rank < p; rank++ {
					al, sl := async.Ledger(rank), sync.Ledger(rank)
					elapsed, total := al.Reading().Elapsed, al.Reading().Bulk
					hidden, commT := al.Reading().Hidden, commTime(al)

					// The critical path dominates both resources...
					if elapsed < comp[rank]-eps {
						t.Fatalf("rank %d: elapsed %g < compute %g", rank, elapsed, comp[rank])
					}
					if elapsed < commT-eps {
						t.Fatalf("rank %d: elapsed %g < single-link comm %g", rank, elapsed, commT)
					}
					// ...and never exceeds the bulk-synchronous sum.
					if elapsed > total+eps {
						t.Fatalf("rank %d: elapsed %g > total %g", rank, elapsed, total)
					}
					// Every span second is on the clock or credited hidden
					// (the credit may over-count, never under-count).
					if elapsed+hidden < total-eps {
						t.Fatalf("rank %d: elapsed %g + hidden %g < total %g",
							rank, elapsed, hidden, total)
					}
					if hidden < 0 || hidden > commT+eps {
						t.Fatalf("rank %d: hidden %g outside [0, comm %g]", rank, hidden, commT)
					}

					// The synchronous twin realizes no overlap: its clock is
					// the bulk sum to the bit — the same additions in the
					// same order.
					if sl.Reading().Elapsed != sl.Reading().Bulk {
						t.Fatalf("rank %d sync: elapsed %g != total %g",
							rank, sl.Reading().Elapsed, sl.Reading().Bulk)
					}
					if sl.Reading().Hidden != 0 {
						t.Fatalf("rank %d sync: hidden %g != 0", rank, sl.Reading().Hidden)
					}
					// Overlap reorders arrival times, never traffic or cost:
					// per-category words, messages, and modeled seconds match
					// exactly (Bulk sums in charge order, which the two
					// modes do not share, so only the per-category scalars
					// are compared).
					for cat := range NumCategories {
						if al.Reading().Words[cat] != sl.Reading().Words[cat] ||
							al.Reading().Msgs[cat] != sl.Reading().Msgs[cat] {
							t.Fatalf("rank %d cat %s: traffic differs async %d/%d sync %d/%d",
								rank, cat, al.Reading().Words[cat], al.Reading().Msgs[cat],
								sl.Reading().Words[cat], sl.Reading().Msgs[cat])
						}
						if al.Reading().Time[cat] != sl.Reading().Time[cat] {
							t.Fatalf("rank %d cat %s: modeled time differs async %g sync %g",
								rank, cat, al.Reading().Time[cat], sl.Reading().Time[cat])
						}
					}
					// And pipelining must not be slower than bulk-synchronous.
					if elapsed > sl.Reading().Elapsed+eps {
						t.Fatalf("rank %d: async elapsed %g > sync elapsed %g",
							rank, elapsed, sl.Reading().Elapsed)
					}
					// Payload contents are mode-independent.
					if asyncSum[rank] != syncSum[rank] {
						t.Fatalf("rank %d: payload checksum differs: async %g sync %g",
							rank, asyncSum[rank], syncSum[rank])
					}
				}
			})
		}
	}
}

// TestTimelinePropertySecondEpochIdentical reruns a program after
// EpochDone on the same cluster: ledger Reset plus request recycling
// must reproduce the first epoch's timeline exactly (the steady-state
// reuse path the trainers rely on).
func TestTimelinePropertySecondEpochIdentical(t *testing.T) {
	ops := genProgram(99, 4)
	first, _, _ := runProgram(t, ops, 4, false)
	want := make([]float64, 4)
	for r := range want {
		want[r] = first.Ledger(r).Reading().Elapsed
	}

	cluster := NewCluster(4, CostParams{Alpha: 1e-6, Beta: 2e-9})
	for epoch := 0; epoch < 2; epoch++ {
		cluster.ResetLedgers()
		runProgramOn(t, cluster, ops, false)
		for r := 0; r < 4; r++ {
			if got := cluster.Ledger(r).Reading().Elapsed; got != want[r] {
				t.Fatalf("epoch %d rank %d: elapsed %g, want %g (first run)", epoch, r, got, want[r])
			}
		}
	}
}

// countingTransport counts what reaches the transport beneath a Comm: the
// test's own tally of the physical traffic.
type countingTransport struct {
	Transport
	sent, recv Traffic
}

func (t *countingTransport) Send(dst int, p Payload) { t.sent.add(p); t.Transport.Send(dst, p) }

func (t *countingTransport) Recv(src int) Payload {
	p := t.Transport.Recv(src)
	t.recv.add(p)
	return p
}

// TestPlanFoldsRandomPrograms runs each random program for E rounds, an
// EpochDone after each, on ranks whose transports count every payload.
// Every fold of the plan must equal the test's tally: Reading's words,
// messages and physical counts exactly and its seconds to a relative
// 1e-12; LastEpoch one round's tally; the wire sums' Samples, Msgs, Words,
// MM, WW and MW exactly, a sample per collective call that moved data; and
// no rank drifts.
func TestPlanFoldsRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, p := range []int{2, 3, 4} {
			ops := genProgram(seed, p)
			rounds := 1 + int(seed)%5
			t.Run(fmt.Sprintf("seed%d_p%d_E%d", seed, p, rounds), func(t *testing.T) {
				f := newChanFabric(p)
				counters, comms := make([]*countingTransport, p), make([]*Comm, p)
				for r := range comms {
					counters[r] = &countingTransport{Transport: f.endpoint(r)}
					comms[r] = NewTransportComm(counters[r], testCost)
				}
				runOn(t, ClusterOf(comms...), func(c *Comm) error {
					me, world, ct := c.Rank(), c.World(), counters[c.Rank()]
					var run, round tally
					var wire WireSums
					// moved runs one collective call and tallies what
					// reached the transport inside it.
					moved := func(call func() *Request) *Request {
						sent, recv := ct.sent, ct.recv
						req := call()
						m := float64(ct.sent.Msgs - sent.Msgs + ct.recv.Msgs - recv.Msgs)
						w := float64(ct.sent.Words - sent.Words + ct.recv.Words - recv.Words)
						if m != 0 || w != 0 {
							wire.Add(WireSums{Samples: 1, Msgs: m, Words: w, MM: m * m, WW: w * w, MW: m * w})
						}
						return req
					}
					lg := lg2(p)
					for range rounds {
						round = tally{}
						sent, recv := ct.sent, ct.recv
						var outstanding []*Request
						for _, op := range ops {
							switch op.kind {
							case 0:
								payload := Payload{}
								if me == op.root {
									payload.Floats = make([]float64, op.size)
								}
								outstanding = append(outstanding, moved(func() *Request { return world.IBroadcast(op.root, payload, op.cat) }))
								round.charge(op.cat, lg, int64(op.size))
							case 1:
								outstanding = append(outstanding, moved(func() *Request {
									return world.IAllGather(Payload{Floats: []float64{op.value, float64(me)}}, op.cat)
								}))
								round.charge(op.cat, lg, int64(2*p))
							case 2:
								c.ChargeTime(CatSpMM, op.dt)
								round.r.Time[CatSpMM] += op.dt
							case 3:
								if len(outstanding) > 0 {
									i := op.pick % len(outstanding)
									outstanding[i].WaitAll()
									outstanding = append(outstanding[:i], outstanding[i+1:]...)
								}
							}
						}
						for _, r := range outstanding {
							r.Wait()
						}
						c.EpochDone()
						round.r.Sent = Traffic{ct.sent.Msgs - sent.Msgs, ct.sent.Words - sent.Words}
						round.r.Recv = Traffic{ct.recv.Msgs - recv.Msgs, ct.recv.Words - recv.Words}
						run.r = run.r.Add(round.r)
					}
					l := c.Ledger()
					if err := l.Drift(); err != nil {
						return err
					}
					if err := sameFold(l.Reading(), run.r); err != nil {
						return fmt.Errorf("rank %d reading: %v", me, err)
					}
					if err := sameFold(l.LastEpoch(), round.r); err != nil {
						return fmt.Errorf("rank %d last epoch: %v", me, err)
					}
					got := l.wire()
					got.MT, got.WT = 0, 0
					if got != wire {
						return fmt.Errorf("rank %d wire sums %+v, tally %+v", me, got, wire)
					}
					return nil
				})
			})
		}
	}
}
