package comm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestConcurrentGridCollectivesStress exercises the exact communication
// pattern of a 2D SUMMA epoch — interleaved row broadcasts, column
// broadcasts, and world all-reduces — many times over, to catch ordering
// or deadlock regressions in the collectives.
func TestConcurrentGridCollectivesStress(t *testing.T) {
	const side = 4
	const p = side * side
	const rounds = 50
	c := NewCluster(p, testCost)
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(cm *Comm) error {
			pi, pj := cm.Rank()/side, cm.Rank()%side
			rowRanks := make([]int, side)
			colRanks := make([]int, side)
			for k := 0; k < side; k++ {
				rowRanks[k] = pi*side + k
				colRanks[k] = k*side + pj
			}
			row := cm.NewGroup(rowRanks)
			col := cm.NewGroup(colRanks)
			world := cm.World()
			rng := rand.New(rand.NewSource(int64(cm.Rank())))
			for r := 0; r < rounds; r++ {
				for k := 0; k < side; k++ {
					var rowIn, colIn Payload
					if k == pj {
						rowIn = Payload{Floats: []float64{float64(r*side + pi)}}
					}
					if k == pi {
						colIn = Payload{Floats: []float64{float64(r*side + pj)}}
					}
					got := row.Broadcast(k, rowIn, CatSparseComm)
					if got.Floats[0] != float64(r*side+pi) {
						return fmt.Errorf("row bcast corrupted: %v", got.Floats)
					}
					got = col.Broadcast(k, colIn, CatDenseComm)
					if got.Floats[0] != float64(r*side+pj) {
						return fmt.Errorf("col bcast corrupted: %v", got.Floats)
					}
				}
				sum := world.AllReduce([]float64{1, rng.Float64()}, CatMisc)
				if sum[0] != p {
					return fmt.Errorf("allreduce count = %v", sum[0])
				}
				if r%10 == 0 {
					cm.Barrier()
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stress run deadlocked")
	}
}

// TestAllReduceDeterministicAcrossRanks: tree reductions must give each
// rank bit-identical results, the property that keeps replicated weights
// in sync without communication.
func TestAllReduceDeterministicAcrossRanks(t *testing.T) {
	const p = 9
	results := make([][]float64, p)
	runCluster(t, p, func(c *Comm) error {
		x := make([]float64, 64)
		rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		results[c.Rank()] = c.World().AllReduce(x, CatDenseComm)
		return nil
	})
	for r := 1; r < p; r++ {
		for i := range results[0] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d element %d differs: %v vs %v — replicated weights would diverge",
					r, i, results[r][i], results[0][i])
			}
		}
	}
}

// TestReduceScatterThenAllGatherRoundTrip: composing the two collectives
// the 1D backward pass relies on must reconstruct the summed vector.
func TestReduceScatterThenAllGatherRoundTrip(t *testing.T) {
	const p = 6
	const total = 31 // uneven split
	runCluster(t, p, func(c *Comm) error {
		g := c.World()
		counts := make([]int, p)
		for i := range counts {
			counts[i] = total / p
			if i < total%p {
				counts[i]++
			}
		}
		x := make([]float64, total)
		for i := range x {
			x[i] = float64(i * (c.Rank() + 1))
		}
		mine := g.ReduceScatter(x, counts, CatDenseComm)
		parts := g.AllGather(Payload{Floats: mine}, CatDenseComm)
		idx := 0
		scale := float64(p*(p+1)) / 2
		for _, part := range parts {
			for _, v := range part.Floats {
				want := float64(idx) * scale
				if v != want {
					return fmt.Errorf("element %d = %v, want %v", idx, v, want)
				}
				idx++
			}
		}
		if idx != total {
			return fmt.Errorf("reassembled %d elements, want %d", idx, total)
		}
		return nil
	})
}

// arenaChurn runs epochs of mixed collectives and returns a digest folded
// over every bit the rank received. Frame sizes change every epoch, so the
// receive arena's size classes are reused out of order, and the broadcast
// spans several frameChunks. Everything an epoch received is read at its
// very end, just before EpochDone — the last moment the buffers are valid —
// so a recycle that ran early, or an epoch-N+1 frame decoded into a buffer
// of epoch N, shows as a digest mismatch and, under -race, as a data race
// between a reader goroutine and the rank.
func arenaChurn(c *Comm, epochs int) uint64 {
	w := c.World()
	me, p := c.Rank(), c.Size()
	digest := uint64(14695981039346656037)
	fold := func(bits uint64) { digest = (digest ^ bits) * 1099511628211 }
	ramp := func(n int, seed float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = seed + float64(i)/3
		}
		return x
	}
	var held []Payload
	for e := 0; e < epochs; e++ {
		held = held[:0]
		root := e % p
		var in Payload
		if me == root {
			in = Payload{Floats: ramp(frameChunk/8+977*e+5, float64(e)), Ints: make([]int, 100+e)}
			for i := range in.Ints {
				in.Ints[i] = i - e
			}
		}
		held = append(held, w.Broadcast(root, in, CatDenseComm))

		req := w.IBroadcast((e+1)%p, Payload{Floats: ramp(10000-e, 0.5)}, CatDenseComm)

		held = append(held, Payload{Floats: w.AllReduce(ramp(3000+e, float64(me)), CatDenseComm)})

		counts := make([]int, p)
		for i := range counts {
			counts[i] = 200 + 10*i + e
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		held = append(held, Payload{Floats: w.ReduceScatter(ramp(total, float64(me+e)), counts, CatDenseComm)})

		held = append(held, w.AllGather(Payload{Floats: ramp(500*(me+1)+e, float64(me))}, CatDenseComm)...)

		parts := make([]Payload, p)
		for i := range parts {
			parts[i] = Payload{Floats: ramp(50*(me*p+i)+e, float64(i)), Ints: []int{me, i, e}}
		}
		for i, got := range w.AllToAll(parts, CatSparseComm) {
			if i != me {
				held = append(held, got)
			}
		}

		ex := make([]Payload, p)
		from := make([]bool, p)
		nxt, prv := (me+1)%p, (me-1+p)%p
		ex[nxt] = Payload{Floats: ramp(4000+7*e, float64(me)), Ints: []int{e}}
		from[prv] = true
		held = append(held, w.ExchangeIndexed(ex, from, CatSparseComm)[prv])

		c.ChargeTime(CatSpMM, 1e-6)
		held = append(held, req.Wait())

		for _, pl := range held {
			fold(uint64(len(pl.Floats))<<32 | uint64(len(pl.Ints)))
			for _, f := range pl.Floats {
				fold(math.Float64bits(f))
			}
			for _, v := range pl.Ints {
				fold(uint64(v))
			}
		}
		c.EpochDone()
	}
	return digest
}

// TestTCPArenaStress: the per-peer reader goroutines fill buffers from the
// receive arena while the ranks run 24 epochs of mixed collectives and
// recycle it at every epoch boundary; every rank's digest must equal the
// in-process fabric's bit for bit. Run under -race (the CI determinism
// loop does) it is also the proof that no reader writes a buffer its rank
// can still read.
func TestTCPArenaStress(t *testing.T) {
	const p, epochs = 4, 24
	var want, got [p]uint64
	runCluster(t, p, func(c *Comm) error {
		want[c.Rank()] = arenaChurn(c, epochs)
		return nil
	})
	runTCP(t, p, func(c *Comm) error {
		got[c.Rank()] = arenaChurn(c, epochs)
		return nil
	})
	if got != want {
		t.Fatalf("digests over TCP %x differ from in-process %x", got, want)
	}
}
