package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tolerance"
)

// This file tests the engine's treatment of the input layer: T¹ = Aᵀ·H⁰ is
// aggregated once per run and the layer-1 weight gradient is (T¹)ᵀ·G¹, with
// no backward aggregation.

// countingOps counts one rank's aggregation calls per layer.
type countingOps struct {
	layerOps
	fwd, bwd []int
}

func (c *countingOps) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	c.fwd[l]++
	return c.layerOps.forwardAggregate(x, l)
}

func (c *countingOps) backwardAggregate(g *dense.Matrix, l int) *dense.Matrix {
	c.bwd[l]++
	return c.layerOps.backwardAggregate(g, l)
}

// everyTrainer returns, by name, one runner per trainer and exchange mode —
// serial, 1d/1.5d × {plain, halo}, 2d/3d — each executing body on every
// rank of p.
func everyTrainer(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) map[string]func() error {
	cfg := p.Config.WithDefaults()
	cases := map[string]func() error{
		"serial": func() error { return body(newSerialOps(p), cfg, p) },
	}
	for _, halo := range []bool{false, true} {
		suffix := ""
		if halo {
			suffix = "-halo"
		}
		oneD, oneFiveD := NewOneD(4, testMach), NewOneFiveD(4, 2, testMach)
		oneD.Halo, oneFiveD.Halo = halo, halo
		cases["1d"+suffix] = func() error { return oneD.runRanks(p, body) }
		cases["1.5d"+suffix] = func() error { return oneFiveD.runRanks(p, body) }
	}
	twoD, threeD := NewTwoD(4, testMach), NewThreeD(8, testMach)
	cases["2d"] = func() error { return twoD.runRanks(p, body) }
	cases["3d"] = func() error { return threeD.runRanks(p, body) }
	return cases
}

// aggCounts is one rank's per-layer aggregation counts after a run.
type aggCounts struct{ fwd, bwd []int }

// runCounted runs the engine over ops and hands the rank's counts to keep.
func runCounted(ops layerOps, cfg nn.Config, prob Problem, keep func(aggCounts)) error {
	L := cfg.Layers()
	c := &countingOps{layerOps: ops, fwd: make([]int, L+1), bwd: make([]int, L+1)}
	_, err := newEngine(c, cfg, prob).run()
	keep(aggCounts{c.fwd, c.bwd})
	return err
}

// TestInputAggregatedOncePerRun: over a whole run() of E epochs — final
// inference pass included — every rank of every trainer, in every exchange
// mode, aggregates the input layer forward exactly once and backward never,
// while each other layer still aggregates E+1 times forward and E times
// backward.
func TestInputAggregatedOncePerRun(t *testing.T) {
	const epochs = 3
	p := testProblem(t, 64, 8, 6, 4, epochs, 61)
	L := p.Config.Layers()

	var mu sync.Mutex
	var ranks []aggCounts
	keep := func(c aggCounts) {
		mu.Lock()
		ranks = append(ranks, c)
		mu.Unlock()
	}
	counted := func(ops layerOps, cfg nn.Config, prob Problem) error { return runCounted(ops, cfg, prob, keep) }
	for name, run := range everyTrainer(p, counted) {
		t.Run(name, func(t *testing.T) {
			ranks = nil
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if len(ranks) == 0 {
				t.Fatal("no rank ran")
			}
			for r, c := range ranks {
				if c.fwd[1] != 1 || c.bwd[1] != 0 {
					t.Fatalf("rank %d of %d: layer 1 aggregated %d times forward and %d backward over a run, want 1 and 0",
						r, len(ranks), c.fwd[1], c.bwd[1])
				}
				for l := 2; l <= L; l++ {
					if c.fwd[l] != epochs+1 || c.bwd[l] != epochs {
						t.Fatalf("rank %d: layer %d aggregated %d times forward and %d backward, want %d and %d",
							r, l, c.fwd[l], c.bwd[l], epochs+1, epochs)
					}
				}
			}
		})
	}
}

// scheduleOps records one rank's layerOps calls over a run, in order, as
// "method layer" — with the operand's column count appended for the two
// aggregations, whose width is the point.
type scheduleOps struct {
	layerOps
	calls []string
}

func (s *scheduleOps) forwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	out := s.layerOps.forwardAggregate(x, l)
	s.calls = append(s.calls, fmt.Sprintf("fwdAgg %d @%d", l, out.Cols))
	return out
}

func (s *scheduleOps) backwardAggregate(x *dense.Matrix, l int) *dense.Matrix {
	out := s.layerOps.backwardAggregate(x, l)
	s.calls = append(s.calls, fmt.Sprintf("bwdAgg %d @%d", l, out.Cols))
	return out
}

func (s *scheduleOps) multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix {
	s.calls = append(s.calls, fmt.Sprintf("mulW %d", l))
	return s.layerOps.multiplyWeight(x, w, l, f)
}

func (s *scheduleOps) weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix {
	s.calls = append(s.calls, fmt.Sprintf("wGrad %d", l))
	return s.layerOps.weightGrad(hPrev, g, l, f)
}

func (s *scheduleOps) inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix {
	s.calls = append(s.calls, fmt.Sprintf("inGrad %d", l))
	return s.layerOps.inputGrad(g, w, l, mask)
}

// schedule is one rank's recorded calls and the ops that made them.
type schedule struct {
	ops   any
	calls []string
}

// runRecorded runs the engine over ops and hands the rank's schedule to keep.
func runRecorded(ops layerOps, cfg nn.Config, prob Problem, keep func(schedule)) error {
	s := &scheduleOps{layerOps: ops}
	_, err := newEngine(s, cfg, prob).run()
	keep(schedule{ops, s.calls})
	return err
}

// featureShare returns how many of f feature columns the rank behind ops
// holds: all of them in the row-partitioned layouts, its grid column's
// Block1D share in 2D and 3D.
func featureShare(ops any, f int) int {
	switch r := ops.(type) {
	case *meshRank:
		return r.fBlk(f).Size(r.pj)
	}
	return f
}

// wantSchedule derives the calls of one run of E epochs from the widths
// alone: T¹ once; per epoch, every layer forward in its product order, then
// every layer backward in it; the final inference pass forward again. Every
// aggregation of layer l ≥ 2 runs at min(f^{l-1}, f^l).
func wantSchedule(ops any, widths []int, epochs int) []string {
	L := len(widths) - 1
	agg := func(dir string, l int) string {
		f := widths[0]
		if l > 1 {
			f = min(widths[l-1], widths[l])
		}
		return fmt.Sprintf("%s %d @%d", dir, l, featureShare(ops, f))
	}
	var forward, backward []string
	for l := 1; l <= L; l++ {
		mul := fmt.Sprintf("mulW %d", l)
		switch {
		case l == 1:
			forward = append(forward, mul)
		case widths[l-1] <= widths[l]:
			forward = append(forward, agg("fwdAgg", l), mul)
		default:
			forward = append(forward, mul, agg("fwdAgg", l))
		}
	}
	for l := L; l >= 1; l-- {
		wGrad, inGrad := fmt.Sprintf("wGrad %d", l), fmt.Sprintf("inGrad %d", l)
		switch {
		case l == 1:
			backward = append(backward, wGrad)
		case widths[l-1] <= widths[l]:
			backward = append(backward, wGrad, inGrad, agg("bwdAgg", l))
		default:
			backward = append(backward, agg("bwdAgg", l), wGrad, inGrad)
		}
	}
	want := []string{agg("fwdAgg", 1)}
	for e := 0; e < epochs; e++ {
		want = append(append(want, forward...), backward...)
	}
	return append(want, forward...)
}

// TestAggregationScheduleFollowsWidths: on every rank of every trainer, in
// every exchange mode, the whole run's sequence of layerOps products is the
// one derived from the widths — each layer in its own product order, each
// aggregation at min(f^{l-1}, f^l) — for narrowing, widening, equal and
// mixed-order networks.
func TestAggregationScheduleFollowsWidths(t *testing.T) {
	const epochs = 2
	shapes := map[string][]int{
		"narrowing": {8, 6, 4},
		"widening":  {4, 6, 8},
		"equal":     {6, 6, 6},
		"mixed":     {8, 4, 6, 6, 3},
	}
	for shape, widths := range shapes {
		p := edgeProblem(t, 64, widths, epochs, 62)
		var mu sync.Mutex
		var ranks []schedule
		keep := func(s schedule) {
			mu.Lock()
			ranks = append(ranks, s)
			mu.Unlock()
		}
		recorded := func(ops layerOps, cfg nn.Config, prob Problem) error { return runRecorded(ops, cfg, prob, keep) }
		for name, run := range everyTrainer(p, recorded) {
			t.Run(shape+"/"+name, func(t *testing.T) {
				ranks = nil
				if err := run(); err != nil {
					t.Fatal(err)
				}
				if len(ranks) == 0 {
					t.Fatal("no rank ran")
				}
				for r, s := range ranks {
					want := wantSchedule(s.ops, widths, epochs)
					if len(s.calls) != len(want) {
						t.Fatalf("rank %d of %d made %d calls, want %d:\n%v\n%v", r, len(ranks), len(s.calls), len(want), s.calls, want)
					}
					for i := range want {
						if s.calls[i] != want[i] {
							t.Fatalf("rank %d of %d, call %d: %q, want %q\n%v", r, len(ranks), i, s.calls[i], want[i], want)
						}
					}
				}
			})
		}
	}
}

// gradProbe keeps the layer-1 weight gradient and the G¹ it was built from.
type gradProbe struct {
	layerOps
	g1, dW1 *dense.Matrix
}

func (p *gradProbe) weightGrad(hPrev, ag *dense.Matrix, l int, f productForm) *dense.Matrix {
	dW := p.layerOps.weightGrad(hPrev, ag, l, f)
	if l == 1 {
		p.g1, p.dW1 = ag.Clone(), dW.Clone()
	}
	return dW
}

// TestInputLayerGradientMatchesDirectFormula: the engine's dW¹ = (T¹)ᵀ·G¹
// against the paper's Y¹ = (H⁰)ᵀ·(A·G¹) evaluated with the reference
// kernels on the same G¹. The two differ only in summation order. The
// directed graph is the point: the identity is one of transposition, and a
// version leaning on A = Aᵀ passes on the symmetric graph alone.
func TestInputLayerGradientMatchesDirectFormula(t *testing.T) {
	sym := testProblem(t, 48, 7, 5, 3, 1, 71)
	rng := rand.New(rand.NewSource(72))
	ds := graph.Synthetic("directed", graph.ErdosRenyi(48, 5, rng), 7, 5, 3, 73)
	graphs := map[string]Problem{
		"symmetric": sym,
		"directed": {
			A:        sparse.RowStochastic(ds.Graph.Adjacency()),
			Features: ds.Features,
			Labels:   ds.Labels,
		},
	}
	for name, p := range graphs {
		for _, widths := range [][]int{{7, 3}, {7, 5, 3}, {7, 5, 6, 4, 3}} {
			t.Run(fmt.Sprintf("%s/L=%d", name, len(widths)-1), func(t *testing.T) {
				p.Config = nn.Config{Widths: widths, LR: 0.05, Epochs: 1, Seed: 74}
				cfg := p.Config.WithDefaults()
				probe := &gradProbe{layerOps: newSerialOps(p)}
				eng := newEngine(probe, cfg, p)
				eng.aggregateInput()
				eng.epoch(nn.InitWeights(cfg))

				ag := dense.New(p.A.Rows, widths[1])
				sparse.RefSpMM(ag, p.A, probe.g1)
				want := dense.New(widths[0], widths[1])
				dense.RefTMul(want, p.Features, ag)
				if want.MaxAbs() == 0 {
					t.Fatal("reference gradient is identically zero: the comparison would prove nothing")
				}
				tolerance.AssertClose(t, "dW1", probe.dW1, want, 1e-14, 1e-10)
			})
		}
	}
}

// backwardRecord collects, over every rank of one trainer, the global
// matrices one epoch's backward pass read and produced, by layer: H^l, the
// upstream gradient ∂L/∂H^l, G^l, and the replicated Y^l, for a network of
// the given widths.
type backwardRecord struct {
	mu           sync.Mutex
	widths       []int
	h, dH, g, dW []*dense.Matrix
}

// outputRows reports whether a layer-l H^l or ∂L/∂H^l — or G^l, with g
// set — is in the mesh's output row layout: H^L and ∂L/∂H^L always, G^L
// when layer L aggregates first (otherwise activationBackward has sent it
// back to the blocks).
func (rec *backwardRecord) outputRows(l int, g bool) bool {
	L := len(rec.widths) - 1
	return l == L && (!g || aggregatesFirst(rec.widths, l))
}

// backwardProbe writes one rank's blocks into the shared record. Where the
// engine fuses a ReLU into a multiply, the probe reads H^l off multiplyWeight
// and G^{l-1} off inputGrad, and asks inputGrad once more with mask = nil for
// the unmasked ∂L/∂H^{l-1} activationBackward would have received.
type backwardProbe struct {
	layerOps
	rec *backwardRecord
}

func (b *backwardProbe) multiplyWeight(x, w *dense.Matrix, l int, f productForm) *dense.Matrix {
	z := b.layerOps.multiplyWeight(x, w, l, f)
	if f == fusedReLU {
		b.place(b.rec.h[l], z, b.rec.outputRows(l, false))
	}
	return z
}

func (b *backwardProbe) inputGrad(g, w *dense.Matrix, l int, mask *dense.Matrix) *dense.Matrix {
	if mask == nil {
		return b.layerOps.inputGrad(g, w, l, nil)
	}
	b.place(b.rec.dH[l-1], b.layerOps.inputGrad(g, w, l, nil), false)
	gPrev := b.layerOps.inputGrad(g, w, l, mask)
	b.place(b.rec.g[l-1], gPrev, false)
	return gPrev
}

// place copies this rank's share into the global matrix it is part of: a
// block, or on the mesh with rows set, the rank's output-layer rows. The
// lock is released by defer: a share that does not fit panics, and the
// launcher recovers that rank while its peers still need the lock.
func (b *backwardProbe) place(full, blk *dense.Matrix, rows bool) {
	r0, c0 := 0, 0
	switch r := b.layerOps.(type) {
	case *rowRank:
		r0 = r.lo
	case *meshRank:
		if rows {
			r0, _ = r.outRows(r.pi, r.pj, r.pk)
		} else {
			r0, _ = r.subRange(r.pi, r.pk)
			c0 = r.fBlk(full.Cols).Lo(r.pj)
		}
	}
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	full.SetSubMatrix(r0, c0, blk)
}

func (b *backwardProbe) activationForward(act dense.Activation, z *dense.Matrix, l int) *dense.Matrix {
	h := b.layerOps.activationForward(act, z, l)
	b.place(b.rec.h[l], h, b.rec.outputRows(l, false))
	return h
}

func (b *backwardProbe) activationBackward(act dense.Activation, dH, h *dense.Matrix, l int) *dense.Matrix {
	b.place(b.rec.dH[l], dH, b.rec.outputRows(l, false))
	g := b.layerOps.activationBackward(act, dH, h, l)
	b.place(b.rec.g[l], g, b.rec.outputRows(l, true))
	return g
}

func (b *backwardProbe) weightGrad(hPrev, g *dense.Matrix, l int, f productForm) *dense.Matrix {
	dW := b.layerOps.weightGrad(hPrev, g, l, f)
	if b.rank() == 0 {
		b.rec.dW[l] = dW.Clone()
	}
	return dW
}

// TestHiddenLayerGradientsMatchDirectFormula: at every layer l ≥ 2, in
// either product order, the engine's Y^l and ∂L/∂H^{l-1} against the
// paper's (H^{l-1})ᵀ·(A·G^l) and (A·G^l)·(W^l)ᵀ evaluated with the
// reference kernels on the same G^l, H^{l-1} and W^l — serial, 1D, 1.5D and
// 2D, on a symmetric and on a row-stochastic directed graph. The reorderings
// rest on associativity and transposition, never on A = Aᵀ: the same
// reference with Aᵀ in A's place must agree on the symmetric graph and be
// told apart on the directed one, or the comparison proves nothing.
func TestHiddenLayerGradientsMatchDirectFormula(t *testing.T) {
	const n = 48
	shapes := map[string][]int{
		"narrowing": {7, 5, 3},
		"widening":  {3, 5, 7},
		"mixed":     {7, 4, 6, 6, 3},
	}
	for shape, widths := range shapes {
		L := len(widths) - 1
		sym := edgeProblem(t, n, widths, 1, 75)
		ds := graph.Synthetic("directed", graph.ErdosRenyi(n, 5, rand.New(rand.NewSource(76))), widths[0], 1, widths[L], 77)
		directed := Problem{
			A: sparse.RowStochastic(ds.Graph.Adjacency()), Features: ds.Features, Labels: ds.Labels, Config: sym.Config,
		}
		for graphName, p := range map[string]Problem{"symmetric": sym, "directed": directed} {
			cfg := p.Config.WithDefaults()
			serialOps := newSerialOps(p)
			var rec *backwardRecord
			probed := func(ops layerOps, cfg nn.Config, prob Problem) error {
				eng := newEngine(&backwardProbe{layerOps: ops, rec: rec}, cfg, prob)
				eng.aggregateInput()
				eng.epoch(nn.InitWeights(cfg))
				return nil
			}
			trainers := map[string]func() error{
				"serial": func() error { return probed(serialOps, cfg, p) },
				"2d":     func() error { return NewTwoD(4, testMach).runRanks(p, probed) },
			}
			// The block-row trainer in every exchange mode: its backward
			// product is the forward one over a plan of A's blocks, and the
			// directed graph is what tells that plan from the forward one.
			for name, mk := range rowTrainerModes() {
				if graphName == "directed" || name == "1d" {
					trainers[name] = func() error { return mk().runRanks(p, probed) }
				}
			}
			for trainer, run := range trainers {
				t.Run(shape+"/"+graphName+"/"+trainer, func(t *testing.T) {
					rec = &backwardRecord{
						widths: widths,
						h:      make([]*dense.Matrix, L+1), dH: make([]*dense.Matrix, L+1),
						g: make([]*dense.Matrix, L+1), dW: make([]*dense.Matrix, L+1),
					}
					rec.h[0] = p.Features
					for l := 1; l <= L; l++ {
						rec.h[l], rec.dH[l], rec.g[l] = dense.New(n, widths[l]), dense.New(n, widths[l]), dense.New(n, widths[l])
					}
					if err := run(); err != nil {
						t.Fatal(err)
					}
					weights := nn.InitWeights(cfg) // the W^l the epoch differentiated at
					for l := 2; l <= L; l++ {
						direct := func(a *sparse.CSR) (dW, dH *dense.Matrix) {
							ag := dense.New(n, widths[l])
							sparse.RefSpMM(ag, a, rec.g[l])
							dW, dH = dense.New(widths[l-1], widths[l]), dense.New(n, widths[l-1])
							dense.RefTMul(dW, rec.h[l-1], ag)
							dense.RefMul(dH, ag, weights[l-1].T())
							return dW, dH
						}
						wantW, wantH := direct(p.A)
						if wantW.MaxAbs() == 0 || wantH.MaxAbs() == 0 {
							t.Fatalf("layer %d: a reference gradient is identically zero: the comparison would prove nothing", l)
						}
						tolerance.AssertClose(t, fmt.Sprintf("dW%d", l), rec.dW[l], wantW, 1e-14, 1e-10)
						tolerance.AssertClose(t, fmt.Sprintf("dH%d", l-1), rec.dH[l-1], wantH, 1e-14, 1e-10)

						mutW, mutH := direct(p.A.Transpose())
						errW := tolerance.Close("dW", rec.dW[l], mutW, 1e-14, 1e-10)
						errH := tolerance.Close("dH", rec.dH[l-1], mutH, 1e-14, 1e-10)
						if graphName == "directed" && (errW == nil || errH == nil) {
							t.Fatalf("layer %d: the gradients also match the formulas with Aᵀ for A on a directed graph (dW: %v, dH: %v)", l, errW, errH)
						}
						if graphName == "symmetric" && (errW != nil || errH != nil) {
							t.Fatalf("layer %d: A = Aᵀ here, yet the Aᵀ reference disagrees (dW: %v, dH: %v)", l, errW, errH)
						}
					}
				})
			}
		}
	}
}
