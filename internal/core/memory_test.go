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

// TestMemoryOrderingAcrossAlgorithms: the 1D backward materializes an n x f
// dense intermediate per rank whatever P is (§IV-A-3) — at the operand's
// width, min(f¹, f²) for this network's one aggregated layer — while
// everything a 2D or 3D rank holds shrinks with P. At P = 64 that one
// intermediate alone outweighs the whole 2D and 3D footprints, the T¹ row
// panels (n·f⁰/√P words) a 2D rank keeps for the run included.
func TestMemoryOrderingAcrossAlgorithms(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 91)
	const ranks = 64
	oneD := peakMem(t, NewOneD(ranks, testMach), p)
	twoD := peakMem(t, NewTwoD(ranks, testMach), p)
	threeD := peakMem(t, NewThreeD(ranks, testMach), p)
	outer := int64(512 * min(16, 8))
	if oneD < outer {
		t.Fatalf("1D peak (%d) below its own n x f outer product (%d)", oneD, outer)
	}
	if twoD >= outer || threeD >= outer {
		t.Fatalf("2D peak (%d) and 3D peak (%d) should both sit below 1D's outer product alone (%d)", twoD, threeD, outer)
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
