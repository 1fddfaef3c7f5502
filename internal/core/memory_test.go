package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// peakMem trains one epoch and returns the per-rank peak resident words.
func peakMem(t *testing.T, tr DistTrainer, p Problem) int64 {
	t.Helper()
	pp := p
	pp.Config.Epochs = 1
	if _, err := tr.Train(pp); err != nil {
		t.Fatal(err)
	}
	return tr.Cluster().Max((*comm.Ledger).Reading).PeakMemWords
}

// TestMemoryOrderingAcrossAlgorithms: no rank of any trainer holds an n x f
// matrix. 1D's backward used to (§IV-A-3's outer product, whatever P was);
// it is now the forward product over A's blocks, so a 1D rank's peak is
// exactly its P stage blocks (2·nnz of its block row plus P row-pointer
// arrays), its rows of H⁰, the replicated weights, and one product's live
// operands — its rows of the output and one block of X: 2·(n/P)·f⁰ at the
// input layer, and no more afterwards, when the kept T¹ ((n/P)·f⁰) stands
// beside products at m ≤ f⁰/2. Everything in that sum but the
// weights shrinks with P.
//
// The mesh trainers spend memory to save words, and the peak says so to the
// word (meshWant): a rank holds the sparse row panels of its grid row — on
// this symmetric A one set, 2·nnz/√P + n + √P words on the average 2D rank
// where the memory-optimal layout of §IV-B has 2·nnz/P, 2·nnz/P^{2/3} +
// n/∛P + ∛P in 3D — beside the T¹ row panels (n·f⁰/√P, n·f⁰/P^{2/3}) and,
// in 3D, the ∛P-fold replicated partial sums. The orderings that follow:
// 1D, which holds 2·nnz/P and nothing replicated, is lowest; 3D's set at
// nnz/P^{2/3} sits below 2D's at nnz/√P. At P = 64 2D's whole peak exceeds
// n·m, the intermediate 1D used to hold at this network's aggregation width
// m = min(f¹, f²), which 3D's peak still undercuts. On a directed A of the
// same structure (row-stochastic) 2D also holds the A panels the transpose
// exchange feeds, exactly twice the symmetric run's, and those alone exceed
// n·m.
func TestMemoryOrderingAcrossAlgorithms(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 91)
	directed := p
	directed.A = sparse.RowStochastic(p.A)
	const n, f0, f1, f2, ranks = 512, 16, 16, 8, 64
	oneD := peakMem(t, NewOneD(ranks, testMach), p)
	twoD := peakMem(t, NewTwoD(ranks, testMach), p)
	threeD := peakMem(t, NewThreeD(ranks, testMach), p)
	twoDDirected := peakMem(t, NewTwoD(ranks, testMach), directed)

	const rows = n / ranks
	var maxNNZ int64
	for r := 0; r < ranks; r++ {
		maxNNZ = max(maxNNZ, int64(p.A.RowPtr[(r+1)*rows]-p.A.RowPtr[r*rows]))
	}
	live := max(2*rows*f0, rows*f0+2*rows*min(f1, f2))
	if want := 2*maxNNZ + ranks*(rows+1) + rows*f0 + f0*f1 + f1*f2 + int64(live); oneD != want {
		t.Fatalf("1D peak %d words, want %d: blocks 2·%d + %d·%d, H⁰ rows %d, weights %d, live operands %d",
			oneD, want, maxNNZ, ranks, rows+1, rows*f0, f0*f1+f1*f2, live)
	}
	if wide := peakMem(t, NewOneD(4, testMach), p); wide <= 4*oneD {
		t.Fatalf("1D peak should fall with P: P=4 %d vs P=64 %d", wide, oneD)
	}

	// panels2D is the heaviest rank's row panels, beyond everything dense,
	// on the symmetric and the directed A.
	var panels2D, panels2DDirected int64
	for _, tc := range []struct {
		name, algo string
		p          Problem
		got        int64
		panels     *int64
	}{
		{"2d", "2d", p, twoD, &panels2D},
		{"3d", "3d", p, threeD, nil},
		{"2d on the directed A", "2d", directed, twoDDirected, &panels2DDirected},
	} {
		var want int64
		for r := 0; r < ranks; r++ {
			w := meshWant(t, tc.algo, ranks, tc.p, r)
			want = max(want, w.resident+w.live)
			if tc.panels != nil {
				*tc.panels = max(*tc.panels, w.panels)
			}
		}
		if tc.got != want {
			t.Fatalf("%s peak %d words, want %d: blocks, held row panels, H⁰, T¹ and its row panels, weights, live operands", tc.name, tc.got, want)
		}
	}
	outer := int64(n * min(f1, f2))
	if !(oneD < threeD && threeD < twoD && threeD < outer && outer < twoD) {
		t.Fatalf("peaks 1D %d, 3D %d, 2D %d, n·m %d: want 1D below 3D below 2D, and n·m between 3D and 2D",
			oneD, threeD, twoD, outer)
	}
	if panels2DDirected != 2*panels2D || panels2DDirected <= outer {
		t.Fatalf("2D row panels %d on the directed A, %d on the symmetric one, n·m %d: want twice as many, above n·m",
			panels2DDirected, panels2D, outer)
	}
}

// TestDirectedGraphHoldsSecondBlockSet: on a directed graph the block-row
// trainer's backward product runs over blocks cut from A, beside the
// forward blocks of Aᵀ, and the peak reports them — exactly one more set of
// P stage blocks (2·nnz of the block row plus P row-pointer arrays) on the
// heaviest rank. The directed graph here is the symmetric one with a single
// value skewed, so both block sets have the symmetric run's structure.
func TestDirectedGraphHoldsSecondBlockSet(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 91)
	const n, ranks, rows = 512, 64, 512 / 64
	skewed := p
	skewed.A = p.A.Clone()
	for k := skewed.A.RowPtr[0]; k < skewed.A.RowPtr[1]; k++ {
		if skewed.A.ColIdx[k] != 0 {
			skewed.A.Val[k] *= 1.5 // A[0,j] ≠ A[j,0]
			break
		}
	}
	var maxNNZ int64
	for r := 0; r < ranks; r++ {
		maxNNZ = max(maxNNZ, int64(p.A.RowPtr[(r+1)*rows]-p.A.RowPtr[r*rows]))
	}
	sym := peakMem(t, NewOneD(ranks, testMach), p)
	dir := peakMem(t, NewOneD(ranks, testMach), skewed)
	if want := 2*maxNNZ + ranks*(rows+1); dir-sym != want {
		t.Fatalf("directed peak %d − symmetric peak %d = %d words, want one more block set: 2·%d + %d·%d = %d",
			dir, sym, dir-sym, maxNNZ, ranks, rows+1, want)
	}
}

// TestThreeDReplicationMeasured: the 3D partial sums occupy ≈ nf/P^{2/3}
// words per rank, a P^{1/3} replication of the nf/P input share (§IV-D-1).
func TestThreeDReplicationMeasured(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 16, 1, 92)
	const ranks = 64 // ∛P = 4
	tr := NewThreeD(ranks, testMach)
	peak := peakMem(t, tr, p)
	n := 512
	f := 16
	inputShare := int64(n * f / ranks)
	// Peak must exceed the P^{1/3}-replicated intermediate alone.
	cbrt := int64(4)
	if peak < inputShare*cbrt {
		t.Fatalf("3D peak %d below the replicated intermediate %d", peak, inputShare*cbrt)
	}
}

// TestOneFiveDMemoryGrowsWithC: replication factor c multiplies the dense
// block footprint (§IV-B's stated downside).
func TestOneFiveDMemoryGrowsWithC(t *testing.T) {
	p := testProblem(t, 512, 24, 24, 8, 1, 93)
	const ranks = 8
	mem1 := peakMem(t, NewOneFiveD(ranks, 1, testMach), p)
	mem4 := peakMem(t, NewOneFiveD(ranks, 4, testMach), p)
	if mem4 <= mem1 {
		t.Fatalf("c=4 peak (%d) should exceed c=1 peak (%d)", mem4, mem1)
	}
}

// TestMemoryScalesDownWithP: for the 2D algorithm, per-rank peak memory
// must shrink as ranks grow ("2D algorithms, which do not use any extra
// memory", §IV-B) — with the held row panels as 1/√P where the paper's
// layout has 1/P.
func TestMemoryScalesDownWithP(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 94)
	mem4 := peakMem(t, NewTwoD(4, testMach), p)
	mem64 := peakMem(t, NewTwoD(64, testMach), p)
	if mem64 >= mem4 {
		t.Fatalf("2D peak should fall with P: P=4 %d vs P=64 %d", mem4, mem64)
	}
}
