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
	var ranks []*countingOps
	counted := func(ops layerOps, cfg nn.Config, prob Problem) error {
		c := &countingOps{layerOps: ops, fwd: make([]int, L+1), bwd: make([]int, L+1)}
		mu.Lock()
		ranks = append(ranks, c)
		mu.Unlock()
		_, err := newEngine(c, cfg, prob).run()
		return err
	}
	cfg := p.Config.WithDefaults()
	cases := map[string]func() error{
		"serial": func() error {
			return counted(newSerialOps(cfg, p.A, p.Features, p.Labels, p.TrainMask, p.lossNormalizer()), cfg, p)
		},
		"serial-f32": func() error {
			return counted(newMixedOps(cfg, p, KernelOptions{Precision: PrecisionF32}), cfg, p)
		},
	}
	for _, halo := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			suffix := ""
			if halo {
				suffix += "-halo"
			}
			if overlap {
				suffix += "-overlap"
			}
			oneD, oneFiveD := NewOneD(4, testMach), NewOneFiveD(4, 2, testMach)
			oneD.Halo, oneD.Overlap = halo, overlap
			oneFiveD.Halo, oneFiveD.Overlap = halo, overlap
			cases["1d"+suffix] = func() error { return oneD.runRanks(p, counted) }
			cases["1.5d"+suffix] = func() error { return oneFiveD.runRanks(p, counted) }
			if !halo {
				twoD, threeD := NewTwoD(4, testMach), NewThreeD(8, testMach)
				twoD.Overlap, threeD.Overlap = overlap, overlap
				cases["2d"+suffix] = func() error { return twoD.runRanks(p, counted) }
				cases["3d"+suffix] = func() error { return threeD.runRanks(p, counted) }
			}
		}
	}
	for name, run := range cases {
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

// gradProbe keeps the layer-1 weight gradient and the G¹ it was built from.
type gradProbe struct {
	layerOps
	g1, dW1 *dense.Matrix
}

func (p *gradProbe) weightGrad(hPrev, ag *dense.Matrix, l int) *dense.Matrix {
	dW := p.layerOps.weightGrad(hPrev, ag, l)
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
				probe := &gradProbe{layerOps: newSerialOps(cfg, p.A, p.Features, p.Labels, nil, p.A.Rows)}
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
