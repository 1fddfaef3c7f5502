package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/nn"
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
	// trpose is the words the rank sends in the transpose exchange, which
	// only a directed graph runs: rows subRange(pi, k) of its Aᵀ block to
	// each rank (pj, pi, k) other than itself, as a CSR payload.
	trpose int64
	// panels is what the rank holds of A once both SUMMA directions have
	// run: its row panels of Aᵀ and, on a directed graph, of A, its own
	// blocks among them. resident adds the H⁰ and T¹ blocks, the T¹ row
	// panels and the replicated weights.
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
	at, directed := p.A, !symmetric(p.A)
	if directed {
		at = p.A.Transpose()
	}
	widestPanel := 0
	for k := 0; k < mesh.C; k++ {
		lo, hi := sub(k, pk)
		widestPanel = max(widestPanel, hi-lo)
		hold(at.ExtractBlock(vBlk.Lo(pi), vBlk.Hi(pi), lo, hi))
		if directed {
			// A(i,k) = (Aᵀ(k,i))ᵀ: what the transpose exchange builds and
			// the backward SUMMA broadcasts. When A = Aᵀ backward reuses the
			// forward set.
			hold(p.A.ExtractBlock(vBlk.Lo(pi), vBlk.Hi(pi), lo, hi))
		}
	}
	if directed {
		cLo, cHi := sub(pj, pk)
		for k := 0; k < mesh.D; k++ {
			if mesh.Rank(pj, pi, k) != rank {
				lo, hi := sub(pi, k)
				w.trpose += csrWords(at.ExtractBlock(lo, hi, cLo, cHi)) + 2
			}
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
// length. For 2D at P = 4 and 9 and 3D at P = 8 on a symmetric and a
// directed graph, and 3D at P = 27 on the directed one (depth 3, so the
// transpose exchange also swaps between fibers off the grid diagonal),
// in-process and over loopback TCP:
//
//   - every rank's scomm and trpose messages and words after a 1-epoch run
//     equal those after a 5-epoch run, to the word, and the scomm words are
//     the rank's row panels — one shared set when A = Aᵀ, one set per
//     direction on the directed graph — counted once; the trpose words are
//     what the rank sends in its one transpose exchange, none when A = Aᵀ;
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
		{"3d", 8, "symmetric", sym}, {"3d", 8, "directed", directed},
		{"3d", 27, "directed", directed},
	} {
		// The ids keep their overlap=false segment: a renamed id is a lost one.
		for _, fabric := range []string{"inproc", "tcp"} {
			t.Run(fmt.Sprintf("%s-p%d/%s/overlap=false/%s", tc.algo, tc.ranks, tc.graph, fabric), func(t *testing.T) {
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

				for r := 0; r < tc.ranks; r++ {
					want, l := meshWant(t, tc.algo, tc.ranks, tc.p, r), full.Ledger(r)
					if got := l.ModelWords[comm.CatSparseComm]; got != want.scomm {
						t.Fatalf("rank %d: %d scomm words over the run, its row panels counted once are %d", r, got, want.scomm)
					}
					if got := l.ModelWords[comm.CatTranspose]; got != want.trpose {
						t.Fatalf("rank %d: %d trpose words over the run, its transpose exchange sends %d", r, got, want.trpose)
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
				requireSameRun(t, "resumed at epoch 2", resumed, clean)
			})
		}
	}
}

// meshRun trains p on the named mesh over cl and returns the result with
// every rank's meshRank as the run left it.
func meshRun(t *testing.T, algo string, ranks int, cl *comm.Cluster, p Problem) (*Result, []*meshRank) {
	t.Helper()
	tr, err := NewTrainer(algo, ranks, testMach)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetCluster(tr, cl); err != nil {
		t.Fatal(err)
	}
	mt := tr.(*meshTrainer)
	var res Result
	held := make([]*meshRank, ranks)
	err = mt.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
		r := ops.(*meshRank)
		held[r.rank()] = r
		out, err := newEngine(ops, cfg, prob).meta(mt.name, mt.p).run()
		if out != nil {
			res = *out
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return &res, held
}

// TestMeshTransposesIffAsymmetric holds the mesh to its one rule — it
// transposes iff A ≠ Aᵀ (symmetric) — at the rule's boundary, on 2D P = 4
// and 3D P = 8:
//
//   - a symmetric A with one value perturbed by 1e-14 relative is inside
//     symmetric's rounding tolerance: every rank's backward SUMMA reads the
//     forward panels (one set) and no rank sends a trpose word;
//   - the same value skewed ×1.5 makes A directed: every rank takes the
//     exchange, and its A block is ExtractBlock of A itself, bit for bit;
//
// and on a directed A over the meshes of TestOutputRowsEmptySubSlices (2D
// P = 9 with n = 5, 3D P = 27 with n = 11), where some ranks hold no output
// rows and the exchange swaps row sub-slices of one or two rows. Every run's
// scomm and trpose words are meshWant's, to the word; it is within equivTol
// of serial, bit-identical over loopback TCP, and a steady-state epoch
// allocates nothing.
func TestMeshTransposesIffAsymmetric(t *testing.T) {
	base := edgeProblem(t, 38, []int{7, 5, 3}, 3, 141)
	scaled := func(factor float64) Problem {
		p := base
		p.A = base.A.Clone()
		for k := p.A.RowPtr[0]; k < p.A.RowPtr[1]; k++ {
			if p.A.ColIdx[k] != 0 {
				p.A.Val[k] *= factor // A[0,j] against A[j,0]
				break
			}
		}
		return p
	}
	directedOn := func(n int) Problem {
		p := edgeProblem(t, n, []int{3, 4, 5}, 3, 142)
		p.A = sparse.RowStochastic(graph.ErdosRenyi(n, 3, rand.New(rand.NewSource(143))).Adjacency())
		return p
	}
	for _, tc := range []struct {
		name     string
		algo     string
		ranks    int
		p        Problem
		directed bool
	}{
		{"perturbed", "2d", 4, scaled(1 + 1e-14), false},
		{"perturbed", "3d", 8, scaled(1 + 1e-14), false},
		{"skewed", "2d", 4, scaled(1.5), true},
		{"skewed", "3d", 8, scaled(1.5), true},
		{"directed-empty-rows", "2d", 9, directedOn(5), true},
		{"directed-empty-rows", "3d", 27, directedOn(11), true},
	} {
		t.Run(fmt.Sprintf("%s/%s-p%d", tc.name, tc.algo, tc.ranks), func(t *testing.T) {
			if directed := !symmetric(tc.p.A); directed != tc.directed {
				t.Fatalf("symmetric finds A ≠ Aᵀ = %v, the case needs %v", directed, tc.directed)
			}
			run := func(cl *comm.Cluster) *Result {
				res, ranks := meshRun(t, tc.algo, tc.ranks, cl, tc.p)
				for rank, r := range ranks {
					want, l := meshWant(t, tc.algo, tc.ranks, tc.p, rank), cl.Ledger(rank)
					if got := l.ModelWords[comm.CatSparseComm]; got != want.scomm {
						t.Fatalf("rank %d: %d scomm words, its row panels counted once are %d", rank, got, want.scomm)
					}
					if got := l.ModelWords[comm.CatTranspose]; got != want.trpose {
						t.Fatalf("rank %d: %d trpose words, its transpose exchange sends %d", rank, got, want.trpose)
					}
					if !tc.directed {
						if r.a != r.at {
							t.Fatalf("rank %d holds a second panel set on a symmetric A", rank)
						}
						continue
					}
					cLo, cHi := r.subRange(r.pj, r.pk)
					if r.a == r.at || !sparse.Equal(r.a.blk, tc.p.A.ExtractBlock(r.vBlk.Lo(r.pi), r.vBlk.Hi(r.pi), cLo, cHi), 0) {
						t.Fatalf("rank %d (%d,%d,%d): the exchanged A block is not A's block", rank, r.pi, r.pj, r.pk)
					}
				}
				return res
			}
			got := run(comm.NewCluster(tc.ranks, comm.CostParams{Alpha: testMach.Alpha, Beta: testMach.Beta}))
			want, err := NewSerial().Train(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			requireNear(t, tc.algo, got, want, equivTol)
			requireSameRun(t, "over TCP", run(tcpCluster(t, tc.ranks)), got)

			useWorkers(t, 1)
			tr, _ := NewTrainer(tc.algo, tc.ranks, testMach)
			if avg := steadyStateAllocs(t, tr.(rankRunner), tc.p, tc.ranks); avg != 0 {
				t.Fatalf("steady-state epoch allocates %.1f times across %d ranks, want 0", avg, tc.ranks)
			}
		})
	}
}
