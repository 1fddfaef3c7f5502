package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dense"
	"repro/internal/nn"
)

// TestFabricHoldsLiveSet pins what each rank's fabric — its Comm's pool
// and its transport's receive arena, Comm.HeldWords — holds after three
// epochs of every distributed trainer, on both fabrics. The problem is
// n = 256 at widths [8, 8, 4]: layer 1 aggregates first (T¹, once per run),
// layer 2 multiplies first over the ReLU output, so each epoch aggregates
// twice at width f² = 4 (forward and backward), all-reduces ∂W¹ (f⁰f¹ = 64
// words) and ∂W² (f¹f² = 32) and reduces the loss (1). Every payload side
// an epoch moves is then a capacity class of its own — 1, 2, 16, 32, 64,
// 128, 256, 512 words — except the halo rows, so the words a rank receives
// in an epoch (its ledger) are the classes it draws. The band comes from
// the dataflow, counted buffer by buffer at its capacity class C (R a row
// trainer's block rows, V the rows of a mesh grid row, q the mesh's side):
//
//   - wantMin, the largest set of payloads live at once, at the peak the
//     trainer reaches: on 1d two broadcast stages (the one the SpMM reads
//     and the next, already received) with their shape headers,
//     2·(C(R·f²) + C(2)); on 1d halo one exchange's rows, Σ_s C(|need_s|·f²);
//     on 1.5d the team all-reduce's accumulator and the partial it adds,
//     2·C(R·f²); on 2d the process-row gather of G¹'s columns,
//     C(V·f¹/q) + C(2); on 3d the fiber reduce-scatter's accumulator and
//     the half it adds, C(V·f²/q) + C(V·f²/2q) — each plus the loss
//     scalar, C(1), held from the loss reduce to the epoch's end.
//   - wantMax, one epoch's draw: every payload the rank receives (its
//     ledger's words, the halo rows at their classes) and every result the
//     pool hands it — the ∂W and loss reductions, C(f⁰f¹) + C(f¹f²) + C(1)
//     on the row trainers, C(f⁰f¹/q) + C(f¹f²/q) + C(1) on the mesh, plus
//     1.5d's two team all-reduces, 2·C(R·f²), and 3d's two reduce-scatters'
//     accumulators and sends, 2·(C(V·f²/q) + C(V·f²/2q)). A fabric that
//     released nothing holds exactly this, so the fabric must hold less;
//     one that kept the set-up's buffers (the input layer's exchanges, the
//     mesh's sparse row panels) holds more.
//
// Which buffer a payload reuses depends on the program alone, not on
// goroutine timing (see comm's recvArena), so every rank holds after the
// third epoch what it held after the second, and the same words over
// loopback TCP as in-process. Comm.Release and Comm.Keep allocate nothing.
func TestFabricHoldsLiveSet(t *testing.T) {
	const n = 256
	widths := []int{8, 8, 4}
	p := testProblem(t, n, widths[0], widths[1], widths[2], 3, 83)
	f0, f1, f2 := widths[0], widths[1], widths[2]
	C := func(k int) int64 { return int64(dense.CapClass(k)) }
	halo := func(tr *rowTrainer) *rowTrainer { tr.Halo = true; return tr }

	// band returns wantMin and the pool's part of wantMax for a rank, and
	// what rounding the received words up to classes adds.
	band := func(ops layerOps) (live, pool, rounding int64) {
		switch r := ops.(type) {
		case *rowRank:
			R := r.hi - r.lo
			pool = C(f0*f1) + C(f1*f2) + C(1)
			switch {
			case r.halo:
				for _, need := range r.fwd.need {
					if len(need) > 0 {
						live += C(len(need) * f2)
						rounding += 2 * (C(len(need)*f2) - int64(len(need)*f2))
					}
				}
			case r.c > 1:
				live = 2 * C(R*f2)
				pool += 2 * C(R*f2)
			default:
				live = 2 * (C(R*f2) + C(2))
			}
		case *meshRank:
			q, V := r.mesh.C, r.vBlk.Size(r.pi)
			pool = C(f0*f1/q) + C(f1*f2/q) + C(1)
			live = C(V*f1/q) + C(2)
			if r.mesh.D > 1 {
				live = C(V*f2/q) + C(V*f2/(2*q))
				pool += 2 * live
			}
		}
		return live + C(1), pool, rounding
	}

	for _, tc := range []struct {
		name  string
		mk    func() rankRunner
		ranks int
	}{
		{"1d", func() rankRunner { return NewOneD(4, testMach) }, 4},
		{"1d-halo", func() rankRunner { return halo(NewOneD(4, testMach)) }, 4},
		{"1.5d", func() rankRunner { return NewOneFiveD(4, 2, testMach) }, 4},
		{"2d", func() rankRunner { return NewTwoD(4, testMach) }, 4},
		{"3d", func() rankRunner { return NewThreeD(8, testMach) }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inproc []int64
			for _, fabric := range []string{"inproc", "tcp"} {
				tr := tc.mk()
				if fabric == "tcp" {
					if err := SetCluster(tr.(Trainer), tcpCluster(t, tc.ranks)); err != nil {
						t.Fatal(err)
					}
				}
				// Between epochs every rank waits in lockstep: nothing is in
				// flight, so the fabric and the ledger are safe to read.
				comms := make([]*comm.Comm, tc.ranks)
				rankOps := make([]layerOps, tc.ranks)
				body, oneEpoch := lockstep(tc.ranks, 3)
				errCh := make(chan error, 1)
				go func() {
					errCh <- tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
						var c *comm.Comm
						switch r := ops.(type) {
						case *rowRank:
							c = r.comm
						case *meshRank:
							c = r.comm
						}
						comms[c.Rank()], rankOps[c.Rank()] = c, ops
						return body(ops, cfg, prob)
					})
				}()
				oneEpoch()
				oneEpoch()
				held2 := make([]int64, tc.ranks)
				recv2 := make([]int64, tc.ranks)
				for r, c := range comms {
					held2[r], recv2[r] = c.HeldWords(), c.Ledger().PhysWordsRecv
				}
				oneEpoch()
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
				held := make([]int64, tc.ranks)
				for r, c := range comms {
					held[r] = c.HeldWords()
					live, pool, rounding := band(rankOps[r])
					draw := c.Ledger().PhysWordsRecv - recv2[r] + rounding + pool
					t.Logf("%s rank %d: fabric holds %d words, band [%d, %d)", fabric, r, held[r], live, draw)
					if held[r] != held2[r] {
						t.Errorf("%s rank %d: fabric held %d words after epoch 2, %d after epoch 3", fabric, r, held2[r], held[r])
					}
					if held[r] < live || held[r] >= draw {
						t.Errorf("%s rank %d: fabric holds %d words after three epochs, outside [%d, %d)", fabric, r, held[r], live, draw)
					}
					if inproc != nil && held[r] != inproc[r] {
						t.Errorf("rank %d: fabric holds %d words over TCP, %d in-process", r, held[r], inproc[r])
					}
				}
				inproc = held
				c, foreign := comms[0], comm.Payload{Floats: make([]float64, 4), Ints: make([]int, 2)}
				if a := testing.AllocsPerRun(10, func() { c.Release(foreign); c.Keep(foreign) }); a != 0 {
					t.Errorf("%s: Release and Keep allocate %v objects per call", fabric, a)
				}
			}
		})
	}
}
