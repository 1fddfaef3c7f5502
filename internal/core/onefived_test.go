package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dense"
	"repro/internal/nn"
)

func TestOneFiveDUnevenBlocks(t *testing.T) {
	p := testProblem(t, 43, 5, 4, 3, 3, 32)
	checkEquivalence(t, NewOneFiveD(6, 2, testMach), p)
}

func TestOneFiveDInvalidReplication(t *testing.T) {
	p := testProblem(t, 20, 4, 3, 2, 1, 33)
	if _, err := NewOneFiveD(6, 4, testMach).Train(p); err == nil {
		t.Fatal("expected error when c does not divide P")
	}
	if _, err := NewOneFiveD(6, 0, testMach).Train(p); err == nil {
		t.Fatal("expected error for c=0")
	}
}

// TestOneFiveDReducesDenseTraffic verifies the §IV-B trade-off in its
// valid regime (P ≫ c²): replication factor c cuts dense broadcast words
// relative to c=1 at equal rank count. It also documents the paper's
// skepticism: once c² approaches P, the intra-team all-reduce (≈ 2ncf/P
// words) eats the broadcast savings.
func TestOneFiveDReducesDenseTraffic(t *testing.T) {
	const ranks = 16
	words := map[int]int64{}
	for _, c := range []int{1, 2} {
		p := testProblem(t, 160, 8, 8, 8, 1, 34)
		tr := NewOneFiveD(ranks, c, testMach)
		if _, err := tr.Train(p); err != nil {
			t.Fatal(err)
		}
		words[c] = tr.Cluster().Max((*comm.Ledger).Reading).Words[comm.CatDenseComm]
	}
	if words[2] >= words[1] {
		t.Fatalf("dense words should fall with replication when P >> c²: %v", words)
	}
}

func TestOneFiveDFactoryName(t *testing.T) {
	tr := NewOneFiveD(4, 2, testMach)
	if tr.Name() != "1.5d" || tr.ReplicationFactor() != 2 {
		t.Fatal("metadata wrong")
	}
}

// TestOneFiveDAtOneReplicaIsOneDForward pins the paper's degenerate case
// on one product in isolation: at c = 1 the 1.5D forward aggregation is the
// 1D one (TestOneDIsOneFiveDAtOneReplica has the whole run, both
// directions). On every rank, in every exchange mode, T¹ is
// bit-identical between 1d P = 4 and 1.5d P = 4 c = 1, and that one product
// charges the same dense-communication words.
func TestOneFiveDAtOneReplicaIsOneDForward(t *testing.T) {
	const ranks = 4
	p := testProblem(t, 96, 9, 6, 4, 1, 35)
	type product struct {
		t1    *dense.Matrix
		words int64
	}
	// inputProduct runs T¹ = Aᵀ·H⁰ alone on every rank of tr, through the
	// counting wrapper, and returns each rank's block and dcomm words.
	inputProduct := func(tr interface {
		rankRunner
		DistTrainer
	}) []product {
		out := make([]product, ranks)
		err := tr.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
			led := tr.Cluster().Ledger(ops.rank())
			before := led.Reading().Words[comm.CatDenseComm]
			c := &countingOps{layerOps: ops, fwd: make([]int, 2), bwd: make([]int, 2)}
			t1 := c.forwardAggregate(ops.input(), 1)
			if c.fwd[1] != 1 {
				return fmt.Errorf("rank %d aggregated the input %d times, want 1", ops.rank(), c.fwd[1])
			}
			out[ops.rank()] = product{t1.Clone(), led.Reading().Words[comm.CatDenseComm] - before}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The ids keep their overlap=false segment: a renamed id is a lost one.
	for _, halo := range []bool{false, true} {
		t.Run(fmt.Sprintf("halo=%v/overlap=false", halo), func(t *testing.T) {
			oneD, oneFiveD := NewOneD(ranks, testMach), NewOneFiveD(ranks, 1, testMach)
			oneD.Halo, oneFiveD.Halo = halo, halo
			want, got := inputProduct(oneD), inputProduct(oneFiveD)
			var moved int64
			for r := range want {
				if got[r].t1.Rows != want[r].t1.Rows || got[r].t1.Cols != want[r].t1.Cols {
					t.Fatalf("rank %d: T¹ is %dx%d in 1.5d, %dx%d in 1d", r, got[r].t1.Rows, got[r].t1.Cols, want[r].t1.Rows, want[r].t1.Cols)
				}
				for i, v := range want[r].t1.Data {
					if math.Float64bits(got[r].t1.Data[i]) != math.Float64bits(v) {
						t.Fatalf("rank %d: T¹[%d] = %v in 1.5d c=1, %v in 1d", r, i, got[r].t1.Data[i], v)
					}
				}
				if got[r].words != want[r].words {
					t.Fatalf("rank %d: the product moved %d dcomm words in 1.5d c=1, %d in 1d", r, got[r].words, want[r].words)
				}
				moved += want[r].words
			}
			if moved == 0 {
				t.Fatal("the product moved no dense words on any rank: the comparison would prove nothing")
			}
		})
	}
}
