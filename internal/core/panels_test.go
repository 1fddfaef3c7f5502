package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/partition"
)

// t1Probe keeps a copy of the rank's T¹ as aggregateInput returned it, and
// the rank's workspace footprint at that moment.
type t1Probe struct {
	*rowRank
	t1   *dense.Matrix
	foot int64
}

func (p *t1Probe) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	out := p.rowRank.forwardAggregate(x, l)
	if l == 1 {
		p.t1, p.foot = out.Clone(), p.ws.FootprintWords()
	}
	return out
}

// TestInputAggregatedInPanels: the block-row trainer aggregates the input
// layer in column panels of H⁰ no wider than w = max_{l≥1} f^l. On 1d and
// 1.5d (c = 2), broadcast and halo under an LDG layout, in-process and over
// TCP, at f⁰ = 37 with w = 8 (four full panels and a ragged one of 5) and at
// f⁰ = 6 ≤ w (one panel), every rank's T¹ is bit-equal to one product over
// all of H⁰; after a whole run no buffer its workspace or its fabric holds
// is larger than
//
//	B = dense.CapClass(max(rows·w, f⁰·f¹)),
//
// rows the largest row block: every vertex-sized buffer is at most w wide,
// and the widest weight-sized one is (∂W¹ and its all-reduce); and the
// input layer leaves at most (q+1)·B words in the workspace, q the peers of
// a stage exchange — what one panel draws, since each panel's are returned
// before the next. One product over H⁰ draws rows·f⁰-word buffers — its
// stage sum, halo gathers, broadcast payloads and team all-reduce — which
// exceed B here.
func TestInputAggregatedInPanels(t *testing.T) {
	const ranks, epochs, n = 4, 2, 256
	for _, widths := range [][]int{{37, 8, 5}, {6, 8, 5}} {
		base, g := testProblemGraph(t, n, widths[0], widths[1], widths[2], epochs, 91)
		for _, algo := range []string{"1d", "1.5d"} {
			c := map[string]int{"1d": 1, "1.5d": 2}[algo]
			for _, exchange := range []string{"bcast", "halo-ldg"} {
				for _, fabric := range []string{"inproc", "tcp"} {
					name := fmt.Sprintf("f0=%d/%s/%s/%s", widths[0], algo, exchange, fabric)
					t.Run(name, func(t *testing.T) {
						tr := newRowTrainer(algo, ranks, c, testMach)
						p := base
						if exchange == "halo-ldg" {
							assign := partition.LDG(g, tr.Blocks(), rand.New(rand.NewSource(92)))
							var err error
							if p, tr.Layout, _, err = PartitionProblem(base, assign); err != nil {
								t.Fatal(err)
							}
							tr.Halo = true
						}
						if fabric == "tcp" {
							if err := SetCluster(tr, tcpCluster(t, ranks)); err != nil {
								t.Fatal(err)
							}
						}
						checkInputPanels(t, tr, p)
					})
				}
			}
		}
	}
}

// checkInputPanels trains tr on p and checks every rank's T¹ and buffers.
func checkInputPanels(t *testing.T, tr *rowTrainer, p Problem) {
	t.Helper()
	widths := p.Config.Widths
	w := slices.Max(widths[1:])
	err := tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
		r := ops.(*rowRank)
		probe := &t1Probe{rowRank: r}
		if _, err := newEngine(probe, cfg, prob).run(); err != nil {
			return err
		}
		var rows int
		for b := range r.blk.Blocks() {
			rows = max(rows, r.blk.Hi(b)-r.blk.Lo(b))
		}
		bound := int64(dense.CapClass(max(rows*w, widths[0]*widths[1])))
		wsWords, fabricWords := r.ws.LargestWords(), r.comm.LargestBufferWords()
		// The oracle: one product over all of H⁰, on every rank at once (a
		// collective: no rank may return before it), once every rank has
		// measured — a TCP reader would take a peer's oracle frames into
		// the arena meanwhile.
		r.comm.Barrier()
		h0 := r.h0
		if r.h0rows != nil {
			h0 = dense.GatherRows(r.h0, r.h0rows)
		}
		whole := r.blockMul(r.fwd, h0)
		// The input layer leaves in the workspace what one panel drew: the
		// panel, its stage sum and at most one halo gather per peer.
		if most := int64(r.group.Size()+1) * bound; probe.foot > most {
			return fmt.Errorf("rank %d: the input layer left %d words in the workspace, over %d", r.rank(), probe.foot, most)
		}
		if wsWords > bound {
			return fmt.Errorf("rank %d: the workspace holds a %d-word buffer, over the panel bound %d", r.rank(), wsWords, bound)
		}
		if fabricWords > bound {
			return fmt.Errorf("rank %d: the fabric holds a %d-word buffer, over the panel bound %d", r.rank(), fabricWords, bound)
		}
		if probe.t1.Rows != whole.Rows || probe.t1.Cols != whole.Cols {
			return fmt.Errorf("rank %d: T¹ is %dx%d, one product over H⁰ %dx%d", r.rank(), probe.t1.Rows, probe.t1.Cols, whole.Rows, whole.Cols)
		}
		for i, v := range whole.Data {
			if math.Float64bits(probe.t1.Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("rank %d: T¹[%d] = %v, one product over H⁰ gives %v", r.rank(), i, probe.t1.Data[i], v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeldWordsWithinPanelBound: after training a 1d halo problem under an
// LDG layout whose input layer runs in four column panels (f⁰ = 32, w = 8,
// widths [32, 8, 8]: every vertex-sized buffer is rows·w, every halo
// exchange moves the same rows at width w), each rank's workspace
// footprint plus its fabric's held words stay within what one epoch draws,
// counted buffer by buffer at its capacity class C:
//
//	workspace  9·C(R·w)   H¹, T², Z², H², ∂L/∂H², G², G²(W²)ᵀ, A·G²(W²)ᵀ, G¹
//	           2·X        the forward and backward halo gathers
//	           C(f¹f²) + 2·C(f⁰f¹)   ∂W² and ∂W¹ with its transposed scratch
//	fabric     2·Y        the rows both exchanges receive
//	           3·(1 + C(f¹f²) + C(f⁰f¹))   each all-reduce's accumulator and two sends
//	           C(R·w) + 2 + Σ_j C(|need_j|) + 3·8   the output gather, the halo
//	                                         plan's index lists, the final count reduce
//
// with R the rank's rows, X = Σ_i C(|sendIdx_i|·w) the row sets one
// exchange sends and Y = Σ_i C(|need_i|·w) those it receives. The input layer's panels draw a subset of the same classes (a
// panel, its stage sum, one exchange), so they add nothing: each panel's
// payloads go back to the fabric at their last reader, and the per-panel
// Comm.Recycle returns whatever is left.
// HeldWords allocates nothing.
func TestHeldWordsWithinPanelBound(t *testing.T) {
	const ranks, epochs, n = 4, 2, 256
	widths := []int{32, 8, 8}
	base, g := testProblemGraph(t, n, widths[0], widths[1], widths[2], epochs, 93)
	tr := NewOneD(ranks, testMach)
	tr.Halo = true
	p, layout, _, err := PartitionProblem(base, partition.LDG(g, ranks, rand.New(rand.NewSource(94))))
	if err != nil {
		t.Fatal(err)
	}
	tr.Layout = layout
	C := func(k int) int64 { return int64(dense.CapClass(k)) }
	rks := make([]*rowRank, ranks)
	err = tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
		r := ops.(*rowRank)
		rks[r.rank()] = r
		_, err := newEngine(r, cfg, prob).run()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	f0, f1, f2, w := widths[0], widths[1], widths[2], widths[1]
	for _, r := range rks {
		R := r.hi - r.lo
		var x, y, plan int64
		for i, idx := range r.fwd.sendIdx {
			x += C(len(idx) * w)
			y += C(len(r.fwd.need[i]) * w)
			plan += C(len(r.fwd.need[i]))
		}
		weights := 1 + C(f1*f2) + C(f0*f1)
		bound := 9*C(R*w) + 2*x + C(f1*f2) + 2*C(f0*f1) +
			2*y + 3*weights + C(R*w) + 2 + plan + 3*8
		ws, held := r.ws.FootprintWords(), r.comm.HeldWords()
		t.Logf("rank %d: workspace %d + fabric %d = %d words, bound %d", r.rank(), ws, held, ws+held, bound)
		if ws+held > bound {
			t.Errorf("rank %d holds %d words (workspace %d, fabric %d), over the one-epoch bound %d",
				r.rank(), ws+held, ws, held, bound)
		}
	}
	if a := testing.AllocsPerRun(10, func() { rks[0].comm.HeldWords() }); a != 0 {
		t.Errorf("HeldWords allocates %v objects per call", a)
	}
}

// TestInputPanelsHoldOnePanel: in the 1d broadcast at P = 4, in-process and
// over TCP, each rank's fabric holds no more words right after the input
// layer at f⁰ = 8w (eight column panels) than at f⁰ = 2w (two). Releasing a
// stage payload at its last reader does not return it to its sender's pool
// while the sender has heard nothing from this rank since, so a peer pair
// with one-way traffic reuses nothing from panel to panel; the per-panel
// Comm.Recycle in rowRank.aggregateInput returns those payloads before the
// next panel draws. Without it, what a rank holds grows with the panel
// count.
func TestInputPanelsHoldOnePanel(t *testing.T) {
	const ranks, n, w = 4, 256, 8
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			held := map[int][]int64{}
			for _, f0 := range []int{2 * w, 8 * w} {
				p := testProblem(t, n, f0, w, 4, 1, 95)
				tr := NewOneD(ranks, testMach)
				if fabric == "tcp" {
					if err := SetCluster(tr, tcpCluster(t, ranks)); err != nil {
						t.Fatal(err)
					}
				}
				words := make([]int64, ranks)
				err := tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
					r := ops.(*rowRank)
					newEngine(r, cfg, prob).aggregateInput()
					words[r.rank()] = r.comm.HeldWords()
					r.comm.Barrier() // every rank measures before any leaves
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				held[f0] = words
			}
			two, eight := held[2*w], held[8*w]
			for r := range ranks {
				t.Logf("rank %d: %d words after two panels, %d after eight", r, two[r], eight[r])
				if two[r] == 0 {
					t.Fatalf("rank %d holds nothing after two panels: the comparison would prove nothing", r)
				}
				if eight[r] > two[r] {
					t.Errorf("rank %d holds %d words after eight input panels, %d after two: the panels' payloads accumulate",
						r, eight[r], two[r])
				}
			}
		})
	}
}
