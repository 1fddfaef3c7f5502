package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// tcpCluster hosts a p-rank world over a loopback TCP fabric, closed with
// the test.
func tcpCluster(t testing.TB, p int) *Cluster {
	t.Helper()
	comms, err := LocalTCPComms(p, testCost)
	if err != nil {
		t.Fatalf("LocalTCPComms: %v", err)
	}
	cl := ClusterOf(comms...)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// runTCP runs fn on every rank of a fresh loopback TCP world, with a
// deadlock watchdog, and returns the cluster for ledger inspection.
func runTCP(t *testing.T, p int, fn func(*Comm) error) *Cluster {
	t.Helper()
	return runOn(t, tcpCluster(t, p), fn)
}

// exerciseCollectives runs one of everything and returns a deterministic
// per-rank digest of every result, so the same program can be compared
// bit-for-bit across transports.
func exerciseCollectives(c *Comm, epochs int) ([]float64, error) {
	w := c.World()
	me, p := c.Rank(), c.Size()
	var digest []float64
	add := func(xs ...float64) { digest = append(digest, xs...) }
	addPayload := func(pl Payload) {
		add(float64(len(pl.Floats)), float64(len(pl.Ints)))
		add(pl.Floats...)
		for _, v := range pl.Ints {
			add(float64(v))
		}
	}
	for e := 0; e < epochs; e++ {
		base := float64(e + 1)

		bc := w.Broadcast(0, Payload{Floats: []float64{base * 1.5, float64(me)}, Ints: []int{e, 42}}, CatDenseComm)
		addPayload(bc)

		x := []float64{base, float64(me) * base, 1.0 / base}
		sum := w.AllReduce(x, CatDenseComm)
		add(sum...)

		// A sum whose bits depend on the order of its additions.
		add(w.AllReduce([]float64{[]float64{1e16, 1, -1e16, 3.3e-7}[me%4] * base}, CatMisc)...)

		counts := make([]int, p)
		long := make([]float64, 0, 2*p)
		for i := 0; i < p; i++ {
			counts[i] = 1 + i%2
			for k := 0; k < counts[i]; k++ {
				long = append(long, float64(i)+base/10)
			}
		}
		rs := w.ReduceScatter(long, counts, CatDenseComm)
		add(rs...)

		ag := w.AllGather(Payload{Floats: []float64{float64(me) + base}}, CatDenseComm)
		for _, pl := range ag {
			addPayload(pl)
		}

		ga := w.Gather(0, Payload{Ints: []int{me, e}}, CatSparseComm)
		if ga != nil {
			for _, pl := range ga {
				addPayload(pl)
			}
		}

		a2a := make([]Payload, p)
		for i := range a2a {
			if i != me {
				a2a[i] = Payload{Floats: []float64{float64(me*p + i)}, Ints: []int{me, i}}
			}
		}
		got := w.AllToAll(a2a, CatSparseComm)
		for i, pl := range got {
			if i != me {
				addPayload(pl)
			}
		}

		// Sparse halo-style exchange: ring neighbors only.
		ex := make([]Payload, p)
		from := make([]bool, p)
		if p > 1 {
			nxt, prv := (me+1)%p, (me-1+p)%p
			ex[nxt] = Payload{Floats: []float64{base * float64(me)}}
			from[prv] = true
			if nxt != prv {
				ex[prv] = Payload{Ints: []int{me}}
				from[nxt] = true
			}
		}
		hx := w.ExchangeIndexed(ex, from, CatSparseComm)
		for i, pl := range hx {
			if from[i] {
				addPayload(pl)
			}
		}

		req := w.IBroadcast(0, Payload{Floats: []float64{math.Pi * base}}, CatDenseComm)
		c.ChargeTime(CatSpMM, 1e-6)
		addPayload(req.Wait())

		c.EpochDone()
	}
	return digest, nil
}

// TestTCPMatchesInProcess is the transport-equivalence pin at the comm
// level: the same SPMD program must produce bit-identical collective
// results over the channel fabric and over real TCP sockets.
func TestTCPMatchesInProcess(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const epochs = 3
			want := make([][]float64, p)
			runCluster(t, p, func(c *Comm) error {
				d, err := exerciseCollectives(c, epochs)
				want[c.Rank()] = d
				return err
			})
			got := make([][]float64, p)
			runTCP(t, p, func(c *Comm) error {
				d, err := exerciseCollectives(c, epochs)
				got[c.Rank()] = d
				return err
			})
			for r := 0; r < p; r++ {
				if len(got[r]) != len(want[r]) {
					t.Fatalf("rank %d: digest length %d over TCP, %d in-process", r, len(got[r]), len(want[r]))
				}
				for i := range got[r] {
					if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
						t.Fatalf("rank %d digest[%d]: %v over TCP, %v in-process", r, i, got[r][i], want[r][i])
					}
				}
			}
		})
	}
}

// TestTCPModelLedgerMatchesInProcess checks the α–β model ledger is
// transport-independent: modeled time, words, and messages agree exactly.
func TestTCPModelLedgerMatchesInProcess(t *testing.T) {
	const p = 4
	cluster := runCluster(t, p, func(c *Comm) error {
		_, err := exerciseCollectives(c, 2)
		return err
	})
	tcp := runTCP(t, p, func(c *Comm) error {
		_, err := exerciseCollectives(c, 2)
		return err
	})
	for r := 0; r < p; r++ {
		want, got := cluster.Ledger(r), tcp.Ledger(r)
		for cat := range NumCategories {
			if got.Reading().Time[cat] != want.Reading().Time[cat] {
				t.Errorf("rank %d %s: modeled time %v over TCP, %v in-process", r, cat, got.Reading().Time[cat], want.Reading().Time[cat])
			}
			if got.Reading().Msgs[cat] != want.Reading().Msgs[cat] {
				t.Errorf("rank %d %s: modeled msgs %d over TCP, %d in-process", r, cat, got.Reading().Msgs[cat], want.Reading().Msgs[cat])
			}
			if got.Reading().Words[cat] != want.Reading().Words[cat] {
				t.Errorf("rank %d %s: modeled words %d over TCP, %d in-process", r, cat, got.Reading().Words[cat], want.Reading().Words[cat])
			}
		}
		if got.Reading().Elapsed != want.Reading().Elapsed {
			t.Errorf("rank %d: elapsed %v over TCP, %v in-process", r, got.Reading().Elapsed, want.Reading().Elapsed)
		}
		if got.Reading().Sent.Msgs != want.Reading().Sent.Msgs || got.Reading().Sent.Words != want.Reading().Sent.Words {
			t.Errorf("rank %d: phys sent (%d msgs, %d words) over TCP, (%d, %d) in-process",
				r, got.Reading().Sent.Msgs, got.Reading().Sent.Words, want.Reading().Sent.Msgs, want.Reading().Sent.Words)
		}
	}
}

// TestTCPBarrier checks the dissemination barrier actually separates
// phases: no rank may observe the phase-2 counter before every rank
// finished phase 1.
func TestTCPBarrier(t *testing.T) {
	const p = 4
	var phase1 [p]bool
	var mu sync.Mutex
	runTCP(t, p, func(c *Comm) error {
		mu.Lock()
		phase1[c.Rank()] = true
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		defer mu.Unlock()
		for r, ok := range phase1 {
			if !ok {
				return fmt.Errorf("rank %d passed barrier before rank %d arrived", c.Rank(), r)
			}
		}
		return nil
	})
}

// TestTCPMetering checks every word lands in exactly one wire sample, on
// both fabrics: the summed sample words and messages equal the rank's
// physical sent+received totals. A collective on a one-member group moves
// nothing and adds no sample.
func TestTCPMetering(t *testing.T) {
	const p = 3
	fabrics := []struct {
		name string
		run  func(*testing.T, int, func(*Comm) error) *Cluster
	}{{"tcp", runTCP}, {"chan", runCluster}}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			cl := fab.run(t, p, func(c *Comm) error {
				if _, err := exerciseCollectives(c, 2); err != nil {
					return err
				}
				before := c.Ledger().wire()
				solo := c.NewGroup([]int{c.Rank()})
				solo.AllReduce([]float64{1, 2}, CatDenseComm)
				solo.Broadcast(0, Payload{Floats: []float64{3}}, CatDenseComm)
				if got := c.Ledger().wire(); got != before {
					return fmt.Errorf("rank %d: one-member collectives changed the meter from %+v to %+v", c.Rank(), before, got)
				}
				return nil
			})
			for r := 0; r < p; r++ {
				l := cl.Ledger(r)
				w := l.wire()
				if w.Samples == 0 {
					t.Fatalf("rank %d: no wire samples", r)
				}
				if want := float64(l.Reading().Sent.Words + l.Reading().Recv.Words); w.Words != want {
					t.Errorf("rank %d: metered %v words, ledger has %v", r, w.Words, want)
				}
				if want := float64(l.Reading().Sent.Msgs + l.Reading().Recv.Msgs); w.Msgs != want {
					t.Errorf("rank %d: metered %v messages, ledger has %v", r, w.Msgs, want)
				}
				if w.MT < 0 || w.WT < 0 {
					t.Errorf("rank %d: negative wall time in Σmt %v or Σwt %v", r, w.MT, w.WT)
				}
			}
		})
	}
}

// TestCoordinatorRejectsBadHello covers the rendezvous failure paths.
func TestCoordinatorRejectsBadHello(t *testing.T) {
	t.Run("rank out of range", func(t *testing.T) {
		co, err := NewCoordinator("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- co.Serve() }()
		if _, err := DialTCP(co.Addr(), 5, 6); err == nil {
			t.Fatal("DialTCP accepted rank 5 in a world the coordinator sized at 2")
		}
		if err := <-serveErr; err == nil {
			t.Fatal("coordinator accepted an out-of-range rank")
		}
	})
	t.Run("invalid rank", func(t *testing.T) {
		if _, err := DialTCP("127.0.0.1:1", -1, 2); err == nil {
			t.Fatal("DialTCP accepted negative rank")
		}
		if _, err := DialTCP("127.0.0.1:1", 2, 2); err == nil {
			t.Fatal("DialTCP accepted rank == world")
		}
	})
	t.Run("world size", func(t *testing.T) {
		if _, err := NewCoordinator("127.0.0.1:0", 0); err == nil {
			t.Fatal("NewCoordinator accepted world 0")
		}
	})
}

// TestTCPWorldAdoption pins the elastic-membership contract: a rank
// dialing with world == 0 adopts the coordinator's announced world size,
// and the resulting fabric carries collectives exactly like one whose
// ranks were launched knowing the size up front.
func TestTCPWorldAdoption(t *testing.T) {
	const p = 3
	co, err := NewCoordinator("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve() }()

	trs := make([]*TCPTransport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = DialTCPOpts(co.Addr(), rank, 0, TCPOptions{})
		}(r)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	for r, tr := range trs {
		if tr.Size() != p {
			t.Fatalf("rank %d adopted world %d, want %d", r, tr.Size(), p)
		}
	}
	// The negotiated fabric must behave like an explicitly-sized one.
	var sums [p][]float64
	var cwg sync.WaitGroup
	for r := 0; r < p; r++ {
		cwg.Add(1)
		go func(rank int) {
			defer cwg.Done()
			c := NewTransportComm(trs[rank], testCost)
			sums[rank] = c.World().AllReduce([]float64{float64(rank + 1)}, CatDenseComm)
		}(r)
	}
	cwg.Wait()
	for r := 0; r < p; r++ {
		if len(sums[r]) != 1 || sums[r][0] != 6 {
			t.Fatalf("rank %d AllReduce over negotiated world = %v, want [6]", r, sums[r])
		}
	}
}

// TestTCPWorldAdoptionRankOutOfRange: a survivor whose rank is outside
// the shrunken world must be refused at rendezvous, not meshed.
func TestTCPWorldAdoptionRankOutOfRange(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve()
	if _, err := DialTCPOpts(co.Addr(), 3, 0, TCPOptions{}); err == nil {
		t.Fatal("rank 3 joined a negotiated world of 1")
	}
}

// TestSendCopiesBeforeReturn: Send hands the kernel the caller's own
// slices, so its promise that the caller may reuse them on return rests
// on writev having copied every byte. The payload is far larger than a
// loopback socket buffers, so Send returns only after the receiver has
// drained most of it; every word is overwritten right after, and the
// receiver must still get the original bits.
func TestSendCopiesBeforeReturn(t *testing.T) {
	const words = 1 << 20
	word := func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }
	p := Payload{Floats: make([]float64, words), Ints: make([]int, 1000)}
	for i := range p.Floats {
		p.Floats[i] = math.Float64frombits(word(i))
	}
	for i := range p.Ints {
		p.Ints[i] = -int(word(i) >> 1)
	}
	trs := dialWorld(t, 2, TCPOptions{})
	trs[0].Send(1, p)
	for i := range p.Floats {
		p.Floats[i] = math.NaN()
	}
	for i := range p.Ints {
		p.Ints[i] = 0
	}
	got := trs[1].Recv(0)
	if len(got.Floats) != words || len(got.Ints) != 1000 {
		t.Fatalf("received %d floats, %d ints", len(got.Floats), len(got.Ints))
	}
	for i, f := range got.Floats {
		if math.Float64bits(f) != word(i) {
			t.Fatalf("float %d arrived as %#x, want %#x", i, math.Float64bits(f), word(i))
		}
	}
	for i, v := range got.Ints {
		if v != -int(word(i)>>1) {
			t.Fatalf("int %d arrived as %d, want %d", i, v, -int(word(i)>>1))
		}
	}
}
