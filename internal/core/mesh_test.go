package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// meshRankWant is what one rank of a mesh run must report, derived from the
// problem and the mesh numbering alone.
type meshRankWant struct {
	// scomm is the sparse words the rank is charged over a whole run: every
	// row panel it roots or receives, once — a broadcast charges each member
	// of the process row the payload's words, a CSR block's 2·nnz + rows + 1
	// plus the 2-word shape header.
	scomm int64
	// panels is what the rank holds of A once both SUMMA directions have
	// run: its row panels of Aᵀ and (2D) of A, its own blocks among them.
	// resident adds the H⁰ and T¹ blocks, the T¹ row panels and the
	// replicated weights.
	panels, resident int64
	// live is the largest pair of operands a steady-state epoch has in
	// flight beside them: a gather of full rows at the widest layer output,
	// or a SUMMA stage's accumulator and dense panel.
	live int64
}

func meshWant(t *testing.T, algo string, ranks int, p Problem, rank int) meshRankWant {
	t.Helper()
	mesh, err := meshFor(algo, ranks)
	if err != nil {
		t.Fatal(err)
	}
	widths := p.Config.Widths
	vBlk := partition.NewBlock1D(p.A.Rows, mesh.C)
	sub := func(q, k int) (int, int) {
		inner := partition.NewBlock1D(vBlk.Size(q), mesh.D)
		return vBlk.Lo(q) + inner.Lo(k), vBlk.Lo(q) + inner.Hi(k)
	}
	pi, pj, pk := mesh.Coords(rank)
	share := func(f int) int64 { return int64(partition.NewBlock1D(f, mesh.C).Size(pj)) }

	var w meshRankWant
	hold := func(panel *sparse.CSR) {
		w.scomm += csrWords(panel) + 2
		w.panels += csrWords(panel)
	}
	at := p.A
	if algo == "2d" {
		at = p.A.Transpose()
	}
	widestPanel := 0
	for k := 0; k < mesh.C; k++ {
		lo, hi := sub(k, pk)
		widestPanel = max(widestPanel, hi-lo)
		hold(at.ExtractBlock(vBlk.Lo(pi), vBlk.Hi(pi), lo, hi))
		if algo == "2d" {
			// A(i,k) = (Aᵀ(k,i))ᵀ: what the transpose exchange builds and
			// the backward SUMMA broadcasts. 3D reuses the forward set.
			hold(p.A.ExtractBlock(vBlk.Lo(pi), vBlk.Hi(pi), lo, hi))
		}
	}
	lo, hi := sub(pi, pk)
	rows := int64(hi - lo)
	f0 := int64(widths[0])
	w.resident = w.panels + 2*rows*share(widths[0]) + rows*f0 + cfgWeightWords(p.Config)

	for l := 1; l < len(widths); l++ {
		w.live = max(w.live, rows*int64(widths[l]))
		if l > 1 {
			m := share(min(widths[l-1], widths[l]))
			w.live = max(w.live, int64(vBlk.Size(pi)+widestPanel)*m)
		}
	}
	return w
}

// TestMeshStaticOperandsCrossOnce: A never changes during training, so on
// the mesh its blocks cross the network once per run, whatever the run's
// length. For 2D at P = 4 and 9 and 3D at P = 8, on a symmetric and (2D) a
// directed graph, in-process and over loopback TCP:
//
//   - every rank's scomm and trpose messages and words after a 1-epoch run
//     equal those after a 5-epoch run, to the word, and the scomm words are
//     the rank's row panels — one set per direction, one shared set on the
//     symmetric 3D mesh — counted once; 3D transposes nothing, 2D's
//     off-diagonal ranks exchange once;
//   - the panels are derived data, not state: a run resumed from a mid-run
//     checkpoint gathers them again — the same scomm and trpose charges as
//     a fresh run — and ends bit-equal to the uninterrupted one;
//   - the ledger's peak is honest about them: PeakMemWords equals blocks +
//     held panels + H⁰ block + T¹ block and row panels + weights + live
//     operands, to the word, on every rank.
func TestMeshStaticOperandsCrossOnce(t *testing.T) {
	const epochs = 5
	sym := testProblem(t, 38, 7, 5, 3, epochs, 131)
	ds := graph.Synthetic("directed", graph.ErdosRenyi(38, 5, rand.New(rand.NewSource(132))), 7, 5, 3, 133)
	directed := sym
	directed.A, directed.Features, directed.Labels = sparse.RowStochastic(ds.Graph.Adjacency()), ds.Features, ds.Labels

	static := []comm.Category{comm.CatSparseComm, comm.CatTranspose}
	for _, tc := range []struct {
		algo  string
		ranks int
		graph string
		p     Problem
	}{
		{"2d", 4, "symmetric", sym}, {"2d", 4, "directed", directed},
		{"2d", 9, "symmetric", sym}, {"2d", 9, "directed", directed},
		{"3d", 8, "symmetric", sym},
	} {
		// overlap=true keeps the ids of the runs that once chose the
		// pipelined schedule every trainer now runs; they repeat the others.
		for _, overlap := range []bool{false, true} {
			for _, fabric := range []string{"inproc", "tcp"} {
				t.Run(fmt.Sprintf("%s-p%d/%s/overlap=%v/%s", tc.algo, tc.ranks, tc.graph, overlap, fabric), func(t *testing.T) {
					// train runs p on a fresh trainer and fabric and returns
					// the result with the cluster holding the run's ledgers.
					train := func(p Problem) (*Result, *comm.Cluster) {
						tr, err := NewTrainer(tc.algo, tc.ranks, testMach)
						if err != nil {
							t.Fatal(err)
						}
						cl := comm.NewCluster(tc.ranks, comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta})
						if fabric == "tcp" {
							cl = tcpCluster(t, tc.ranks)
						}
						return trainOn(t, tr, cl, p), cl
					}
					sameStatic := func(what string, got, want *comm.Cluster) {
						t.Helper()
						for r := 0; r < tc.ranks; r++ {
							g, w := got.Ledger(r), want.Ledger(r)
							for _, cat := range static {
								if g.ModelMsgs[cat] != w.ModelMsgs[cat] || g.ModelWords[cat] != w.ModelWords[cat] {
									t.Fatalf("rank %d %s: %s charged %d msgs / %d words, a 1-epoch run %d / %d",
										r, cat, what, g.ModelMsgs[cat], g.ModelWords[cat], w.ModelMsgs[cat], w.ModelWords[cat])
								}
							}
						}
					}

					short := tc.p
					short.Config.Epochs = 1
					_, one := train(short)
					clean, full := train(tc.p)
					sameStatic(fmt.Sprintf("a %d-epoch run", epochs), full, one)

					mesh, _ := meshFor(tc.algo, tc.ranks)
					for r := 0; r < tc.ranks; r++ {
						want, l := meshWant(t, tc.algo, tc.ranks, tc.p, r), full.Ledger(r)
						if got := l.ModelWords[comm.CatSparseComm]; got != want.scomm {
							t.Fatalf("rank %d: %d scomm words over the run, its row panels counted once are %d", r, got, want.scomm)
						}
						pi, pj, _ := mesh.Coords(r)
						if exchanges := tc.algo == "2d" && pi != pj; (l.ModelWords[comm.CatTranspose] > 0) != exchanges {
							t.Fatalf("rank %d (%d,%d) of %s: %d trpose words over the run", r, pi, pj, tc.algo, l.ModelWords[comm.CatTranspose])
						}
						if l.PeakMemWords != want.resident+want.live {
							t.Fatalf("rank %d: peak %d words, want %d resident (blocks, held panels, H⁰, T¹ and its row panels, weights) + %d live",
								r, l.PeakMemWords, want.resident, want.live)
						}
					}

					dir := t.TempDir()
					half := tc.p
					half.Config.Epochs = 2
					half.Checkpoint = checkpoint.Options{Dir: dir, Every: 1}
					train(half)
					rest := tc.p
					rest.Checkpoint = half.Checkpoint
					resumed, resumedOn := train(rest)
					if resumed.ResumedEpoch != 2 {
						t.Fatalf("resumed from epoch %d, want 2", resumed.ResumedEpoch)
					}
					sameStatic("a run resumed at epoch 2", resumedOn, one)
					bitEqualResults(t, resumed, clean)
				})
			}
		}
	}
}
