package core

import (
	"fmt"
	"testing"

	"repro/internal/dense"
	"repro/internal/nn"
)

// TestWorkspaceHoldsLiveSet pins each rank's workspace footprint after two
// epochs (after aggregateInput, which leaves nothing behind) on widths
// [8, 8, 8, 3]: layers 1 and 2 aggregate first with their ReLU fused, the
// output layer multiplies first over the ReLU output H², so every release
// point of the engine is reached. The wide (·8) and the narrow (·3) buffers
// of a rank's rows are more than twice apart, so best fit never serves one
// from the other. The band comes from the dataflow, counted buffer by
// buffer at its capacity class C (R a row trainer's rows):
//
//   - wantMin, the engine's live set at its peak — H¹, T² or G²(W²)ᵀ, H²
//     and G² while layer 2's backward runs, H³, ∂L/∂H³ and G³ (or A·G³)
//     while layer 3's does — plus the rank's own buffers that live beside
//     it: 4·C(R·8) + 3·C(R·3) + C(8·3) + C(8·8) on the block-row trainers
//     (∂W³'s and ∂W²'s partials, which their all-reduce copies out; only
//     the primary of a 1.5D team forms ∂W's transposed scratch: + C(8·8)),
//     and on serial, which keeps every ∂W: 4·C(n·8) + 3·C(n·3) + C(8·3) +
//     3·C(8·8). On the mesh it is the live set at layer 2's inputGrad: four
//     blocks of width 8/q, G²'s gathered full rows, the W² row block, H³'s
//     output rows, ∂W³ and ∂W².
//   - wantMax, wantMin plus the scratch an implementation draws outside
//     that point, one buffer per kind: nothing on serial and the broadcast
//     row trainers (their aggregations draw only their result: a broadcast
//     stage is a fabric payload); the halo gathers of both widths on 1D
//     halo; on the mesh G³'s full rows, two narrow blocks, the row layout's
//     Z³ and G³ beside H³, fromRows' column blocks, ∂W's partial and
//     transposed scratch, and on the 3D mesh the pre-reduction sums of
//     both widths.
//
// A workspace that kept every draw until the epoch boundary holds about
// twice wantMax; one that forgot to release a layer's operands lands above
// it on the trainers whose peak that operand reaches.
func TestWorkspaceHoldsLiveSet(t *testing.T) {
	const n = 256
	widths := []int{8, 8, 8, 3}
	p := testProblem(t, n, 8, 8, 3, 2, 81)
	p.Config.Widths = widths
	C := func(k int) int64 { return int64(dense.CapClass(k)) }
	w2, w3 := widths[2], widths[3]

	check := func(t *testing.T, rank int, foot, wantMin, wantMax int64) {
		t.Helper()
		t.Logf("rank %d: footprint %d words, band [%d, %d]", rank, foot, wantMin, wantMax)
		if foot < wantMin || foot > wantMax {
			t.Errorf("rank %d: workspace holds %d words after two epochs, outside [%d, %d]", rank, foot, wantMin, wantMax)
		}
	}
	twoEpochs := func(eng interface {
		aggregateInput()
		epoch([]*dense.Matrix) (float64, *dense.Matrix)
	}, ops layerOps, cfg nn.Config) {
		eng.aggregateInput()
		weights := nn.InitWeights(cfg)
		for range 2 {
			eng.epoch(weights)
			ops.endEpoch()
		}
	}

	t.Run("serial", func(t *testing.T) {
		cfg := p.Config.WithDefaults()
		eng := newSerialEngine(cfg, p.normalized(), false)
		twoEpochs(eng, eng.ops, cfg)
		live := 4*C(n*w2) + 3*C(n*w3) + C(w2*w3) + 3*C(w2*w2)
		check(t, 0, eng.ops.(*serialOps).ws.FootprintWords(), live, live)
	})

	rowCases := []struct {
		name string
		tr   *rowTrainer
	}{
		{"1d", NewOneD(4, testMach)},
		{"1d-halo", func() *rowTrainer { tr := NewOneD(4, testMach); tr.Halo = true; return tr }()},
		{"1.5d", NewOneFiveD(4, 2, testMach)},
	}
	for _, tc := range rowCases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
				r := ops.(*rowRank)
				twoEpochs(newEngine(ops, cfg, prob), ops, cfg)
				R := r.hi - r.lo
				live := 4*C(R*w2) + 3*C(R*w3) + C(w2*w3) + C(w2*w2)
				if r.primary() {
					live += C(w2 * w2)
				}
				most := live
				if r.halo {
					for _, idx := range r.fwd.sendIdx {
						if len(idx) > 0 {
							most += C(len(idx)*w2) + C(len(idx)*w3)
						}
					}
				}
				check(t, r.rank(), r.ws.FootprintWords(), live, most)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, tc := range []struct {
		name  string
		tr    *meshTrainer
		ranks int
	}{{"2d", NewTwoD(4, testMach), 4}, {"3d", NewThreeD(8, testMach), 8}} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
				r := ops.(*meshRank)
				twoEpochs(newEngine(ops, cfg, prob), ops, cfg)
				rows, out := r.h0.Rows, r.outBlk.Size(r.pj)
				cols := func(f int) int { return r.fBlk(f).Size(r.pj) }
				live := 4*C(rows*cols(w2)) + C(rows*w2) + C(cols(w2)*w2) + C(out*w3) + C(w2*w3) + C(w2*w2)
				most := live + C(rows*w3) + 2*C(rows*cols(w3)) + 2*C(out*w3) + 2*C(w2*w2)
				for j := range r.mesh.C {
					most += C(out * r.fBlk(w3).Size(j))
				}
				if r.mesh.D > 1 {
					vRows := r.vBlk.Size(r.pi)
					most += C(vRows*cols(w2)) + C(vRows*cols(w3))
				}
				check(t, r.rank(), r.ws.FootprintWords(), live, most)
				return nil
			})
			if err != nil {
				t.Fatal(fmt.Errorf("%s: %w", tc.name, err))
			}
		})
	}
}
