package costmodel_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

var overlapMach = costmodel.Machine{
	Name: "overlap-test", Alpha: 2e-6, Beta: 3e-9,
	GEMMRate: 1e9, SpMMRate: 1e9, MiscOverhead: 0,
}

// csrPayloadWords mirrors the trainers' CSR serialization size: values as
// floats plus [rows, cols, rowptr..., colidx...] as ints.
func csrPayloadWords(m *sparse.CSR) int64 {
	return int64(m.NNZ()) + int64(2+len(m.RowPtr)+len(m.ColIdx))
}

// summaStages builds, per rank of a √P x √P grid, the stage schedule of
// one forward SUMMA SpMM over a fixed R-MAT graph with f dense columns:
// per stage, the sparse panel's broadcast words along the process row plus
// the dense panel's along the process column (charged together — in-flight
// collectives queue on the rank's link), and the local SpMM time.
func summaStages(at *sparse.CSR, p, f int, mach costmodel.Machine) [][]costmodel.Stage {
	grid := partition.NewSquareGrid(p)
	vBlk := partition.NewBlock1D(at.Rows, grid.Pr)
	fBlk := partition.NewBlock1D(f, grid.Pc)
	lg := func(q int) int64 {
		var l int64
		for pow := 1; pow < q; pow <<= 1 {
			l++
		}
		return l
	}
	stages := make([][]costmodel.Stage, p)
	for rank := 0; rank < p; rank++ {
		pi, pj := grid.Coords(rank)
		for k := 0; k < grid.Pc; k++ {
			aBlk := at.ExtractBlock(vBlk.Lo(pi), vBlk.Hi(pi), vBlk.Lo(k), vBlk.Hi(k))
			xRows := vBlk.Size(k)
			xCols := fBlk.Size(pj)
			stages[rank] = append(stages[rank], costmodel.Stage{
				Msgs:    lg(grid.Pc) * 2,
				Words:   csrPayloadWords(aBlk) + int64(xRows*xCols) + 2,
				Compute: mach.SpMMTime(int64(aBlk.NNZ()), aBlk.Rows, xCols),
			})
		}
	}
	return stages
}

// TestPipelinePredictorMatchesTimeline pins the analytic pipeline
// predictor against the simulated timeline ledger, exactly: every rank of
// a 2x2 grid replays its R-MAT stage schedule with one stage in flight —
// an indexed exchange that delivers the stage's words in the stage's
// message count, IExchangeIndexed / ChargeTime / Wait — and its ledger
// Elapsed must equal PipelineTime to the last bit (both sides perform the
// identical max/add recurrence). BulkTime likewise pins the synchronous
// replay, ExchangeIndexed / ChargeTime.
func TestPipelinePredictorMatchesTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.RMAT(8, 8, graph.DefaultRMAT, rng) // fixed 256-vertex R-MAT
	at := g.NormalizedAdjacency()
	const p, f = 4, 16
	stages := summaStages(at, p, f, overlapMach)

	// exchange is stage k's communication on the calling rank: the rank is
	// charged what it receives, so its ring successor sends it all but one
	// of the stage's words and the rank after that the last one — two
	// messages, as every stage of the 2x2 schedule has.
	exchange := func(c *comm.Comm, k int) *comm.Request {
		me := c.Rank()
		parts, from := make([]comm.Payload, p), make([]bool, p)
		for hop := 1; hop <= 2; hop++ {
			to := (me + p - hop) % p
			s := stages[to][k]
			if s.Msgs != 2 || s.Words < 2 {
				t.Errorf("rank %d stage %d: %d msgs, %d words: not a schedule two ring hops can deliver", to, k, s.Msgs, s.Words)
			}
			words := int64(1)
			if hop == 1 {
				words = s.Words - 1
			}
			parts[to] = comm.Payload{Floats: make([]float64, words)}
			from[(me+hop)%p] = true
		}
		return c.World().IExchangeIndexed(parts, from, comm.CatDenseComm)
	}
	replay := func(pipelined bool) *comm.Cluster {
		cl := comm.NewCluster(p, comm.CostParams{Alpha: overlapMach.Alpha, Beta: overlapMach.Beta})
		done := make(chan error, 1)
		go func() {
			done <- cl.Run(func(c *comm.Comm) error {
				sched := stages[c.Rank()]
				if pipelined {
					req := exchange(c, 0)
					for k, s := range sched {
						req.WaitAll()
						if k+1 < len(sched) {
							req = exchange(c, k+1)
						}
						c.ChargeTime(comm.CatSpMM, s.Compute)
					}
				} else {
					for k, s := range sched {
						exchange(c, k).WaitAll()
						c.ChargeTime(comm.CatSpMM, s.Compute)
					}
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("replay deadlocked")
		}
		return cl
	}

	pipe := replay(true)
	bulk := replay(false)
	for rank := 0; rank < p; rank++ {
		if got, want := pipe.Ledger(rank).Elapsed(), overlapMach.PipelineTime(stages[rank]); got != want {
			t.Fatalf("rank %d: timeline %v != PipelineTime %v", rank, got, want)
		}
		if got, want := bulk.Ledger(rank).Elapsed(), overlapMach.BulkTime(stages[rank]); got != want {
			t.Fatalf("rank %d: sync timeline %v != BulkTime %v", rank, got, want)
		}
		if overlapMach.PipelineTime(stages[rank]) >= overlapMach.BulkTime(stages[rank]) {
			t.Fatalf("rank %d: pipeline must strictly beat bulk on this schedule", rank)
		}
	}
}

// TestPipelineTimeBounds: the pipeline can never beat either resource
// alone, never lose to bulk, and always pays stage 0's communication and
// the last stage's compute.
func TestPipelineTimeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		stages := make([]costmodel.Stage, n)
		var comm, comp float64
		for i := range stages {
			stages[i] = costmodel.Stage{
				Msgs:    int64(rng.Intn(10)),
				Words:   int64(rng.Intn(100000)),
				Compute: rng.Float64() * 1e-4,
			}
			comm += stages[i].CommTime(overlapMach)
			comp += stages[i].Compute
		}
		pipe := overlapMach.PipelineTime(stages)
		bulk := overlapMach.BulkTime(stages)
		if pipe > bulk {
			t.Fatalf("trial %d: pipeline %v exceeds bulk %v", trial, pipe, bulk)
		}
		if pipe < comm || pipe < comp {
			t.Fatalf("trial %d: pipeline %v below resource bounds comm=%v comp=%v", trial, pipe, comm, comp)
		}
		lower := stages[0].CommTime(overlapMach) + stages[n-1].Compute
		if pipe < lower {
			t.Fatalf("trial %d: pipeline %v below exposed ends %v", trial, pipe, lower)
		}
	}
}

// TestPipelineTimeExactTinyCases: hand-computed schedules.
func TestPipelineTimeExactTinyCases(t *testing.T) {
	m := costmodel.Machine{Alpha: 1, Beta: 0}
	cases := []struct {
		stages []costmodel.Stage
		want   float64
	}{
		{nil, 0},
		// One stage: comm then comp, nothing to hide.
		{[]costmodel.Stage{{Msgs: 2, Compute: 3}}, 5},
		// Two stages, comm shorter than comp: only stage 0 comm exposed.
		{[]costmodel.Stage{{Msgs: 2, Compute: 5}, {Msgs: 2, Compute: 5}}, 12},
		// Two stages, comm longer than comp: comm chain dominates.
		{[]costmodel.Stage{{Msgs: 5, Compute: 1}, {Msgs: 5, Compute: 1}}, 11},
		// Zero compute everywhere degenerates to the comm sum.
		{[]costmodel.Stage{{Msgs: 4}, {Msgs: 6}}, 10},
	}
	for i, tc := range cases {
		if got := m.PipelineTime(tc.stages); got != tc.want {
			t.Fatalf("case %d: PipelineTime = %v, want %v", i, got, tc.want)
		}
	}
}

// TestStageCommTime sanity-checks the α–β evaluation.
func TestStageCommTime(t *testing.T) {
	s := costmodel.Stage{Msgs: 3, Words: 1000}
	want := 3*overlapMach.Alpha + 1000*overlapMach.Beta
	if got := s.CommTime(overlapMach); got != want {
		t.Fatalf("CommTime = %v, want %v", got, want)
	}
}

// Ensure the fixture graph is deterministic across runs — the "fixed
// R-MAT graph" the pinning test advertises.
func TestOverlapFixtureDeterministic(t *testing.T) {
	a := graph.RMAT(8, 8, graph.DefaultRMAT, rand.New(rand.NewSource(17)))
	b := graph.RMAT(8, 8, graph.DefaultRMAT, rand.New(rand.NewSource(17)))
	if fmt.Sprint(a.Edges) != fmt.Sprint(b.Edges) {
		t.Fatal("R-MAT fixture is not deterministic")
	}
}
