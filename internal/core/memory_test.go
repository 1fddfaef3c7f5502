package core

import "testing"

// peakMem trains one epoch and returns the per-rank peak resident words.
func peakMem(t *testing.T, tr DistTrainer, p Problem) int64 {
	t.Helper()
	pp := p
	pp.Config.Epochs = 1
	if _, err := tr.Train(pp); err != nil {
		t.Fatal(err)
	}
	return tr.Cluster().MaxPeakMemWords()
}

// TestMemoryOrderingAcrossAlgorithms: no rank of any trainer holds an n x f
// matrix. 1D's backward used to (§IV-A-3's outer product, whatever P was);
// it is now the forward product over A's blocks, so a 1D rank's peak is
// exactly its P stage blocks (2·nnz of its block row plus P row-pointer
// arrays), its rows of H⁰, the replicated weights, and one product's live
// operands — its rows of the output and one block of X: 2·(n/P)·f⁰ at the
// input layer, and no more afterwards, when the kept T¹ ((n/P)·f⁰) stands
// beside products at m ≤ f⁰/2. Everything in that sum but the
// weights shrinks with P, and at P = 64 it sits below the 3D and the 2D
// peaks — a 2D rank also keeps the A block its transpose exchange received
// and the T¹ row panels (n·f⁰/√P words), a 3D rank its ∛P-fold replicated
// partial sums — which in turn sit below n·m, the one intermediate 1D used
// to hold at this network's aggregation width m = min(f¹, f²).
func TestMemoryOrderingAcrossAlgorithms(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 91)
	const n, f0, f1, f2, ranks = 512, 16, 16, 8, 64
	oneD := peakMem(t, NewOneD(ranks, testMach), p)
	twoD := peakMem(t, NewTwoD(ranks, testMach), p)
	threeD := peakMem(t, NewThreeD(ranks, testMach), p)

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
	outer := int64(n * min(f1, f2))
	if !(oneD < threeD && oneD < twoD && twoD < outer && threeD < outer) {
		t.Fatalf("peaks 1D %d, 3D %d, 2D %d, n·m %d: want 1D below 2D and 3D, and those below n·m", oneD, threeD, twoD, outer)
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
// memory", §IV-B).
func TestMemoryScalesDownWithP(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 94)
	mem4 := peakMem(t, NewTwoD(4, testMach), p)
	mem64 := peakMem(t, NewTwoD(64, testMach), p)
	if mem64 >= mem4 {
		t.Fatalf("2D peak should fall with P: P=4 %d vs P=64 %d", mem4, mem64)
	}
}
