package harness

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/partition"
)

var quick = Options{Quick: true, Machine: costmodel.Summit}

var update = flag.Bool("update", false, "rewrite golden files")

// compareGolden checks got against testdata/name, rewriting the file first
// under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("drifted from %s — if intentional, rerun with -update and say why in the commit:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestModeledEpochGolden is the repo's one modeled gate: the steady-state
// epoch of every distributed trainer on the quick reddit analog, read both
// ways off the same runs — bulk-synchronous, critical path and the
// communication hidden between them — as the ledger charges it on the
// default machine profile: messages and words per Figure 3 category to the
// unit, modeled seconds per category and per epoch to 6 significant digits
// (so an FMA-fusing architecture agrees). The file's git history is the
// modeled trajectory; a reviewer sees every number an optimisation moves.
// After an intended change: go test ./internal/harness -run TestModeledEpochGolden -update
func TestModeledEpochGolden(t *testing.T) {
	o := Options{Quick: true}.WithDefaults()
	spec, err := o.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	var b strings.Builder
	for _, cfg := range []struct {
		algo string
		p    int
	}{{"1d", 4}, {"1.5d", 4}, {"2d", 4}, {"3d", 8}} {
		m, err := MeasureEpoch(ds, cfg.algo, cfg.p, false, o.Machine)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s P=%d: bulk %.6g s, critical path %.6g s, hidden %.6g s\n",
			cfg.algo, cfg.p, m.EpochTime, m.CriticalPathTime, m.HiddenCommTime)
		for _, cat := range comm.AllCategories {
			fmt.Fprintf(&b, "  %-6s %4d msgs %8d words %.6g s\n",
				cat, m.MsgsByCat[cat], m.WordsByCat[cat], m.TimeByCat[cat])
		}
	}
	compareGolden(t, "modeled_epoch.golden", b.String())
}

// referenceEpoch is the measurement as two runs make it: a 1-epoch and a
// 2-epoch run of the configuration, their ledgers' maxima over the ranks
// differenced into the epoch, run(2) − run(1), and the once-per-run part,
// 2·run(1) − run(2), with the 1-epoch run's peak.
func referenceEpoch(t *testing.T, ds *graph.Dataset, algo string, p int, halo bool, mach costmodel.Machine) EpochMeasurement {
	t.Helper()
	var runs [2]comm.Reading
	for e := range runs {
		tr, err := core.NewTrainer(algo, p, mach)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.ConfigureRowDecomposition(tr, nil, nil, "", halo, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(problemFor(ds, e+1)); err != nil {
			t.Fatal(err)
		}
		runs[e] = tr.(core.DistTrainer).Cluster().Max((*comm.Ledger).Reading)
	}
	one, two := runs[0], runs[1]
	m := EpochMeasurement{
		EpochTime: two.Bulk - one.Bulk, CriticalPathTime: two.Elapsed - one.Elapsed,
		HiddenCommTime: two.Hidden - one.Hidden, OnceTime: 2*one.Bulk - two.Bulk, PeakMemWords: one.PeakMemWords,
		TimeByCat: map[comm.Category]float64{}, OnceTimeByCat: map[comm.Category]float64{},
		WordsByCat: map[comm.Category]int64{}, OnceWordsByCat: map[comm.Category]int64{}, MsgsByCat: map[comm.Category]int64{},
	}
	for _, cat := range comm.AllCategories {
		m.TimeByCat[cat], m.OnceTimeByCat[cat] = two.Time[cat]-one.Time[cat], 2*one.Time[cat]-two.Time[cat]
		m.WordsByCat[cat], m.OnceWordsByCat[cat] = two.Words[cat]-one.Words[cat], 2*one.Words[cat]-two.Words[cat]
		m.MsgsByCat[cat] = two.Msgs[cat] - one.Msgs[cat]
	}
	return m
}

// TestMeasureEpochMatchesTwoRuns: the one 2-epoch run MeasureEpoch trains
// reads what a 1-epoch and a 2-epoch run differenced read, on the golden's
// configurations and the halo row decompositions: words, messages and the
// peak exactly, seconds to a relative 1e-12 (the last epoch is a difference
// of running sums).
func TestMeasureEpochMatchesTwoRuns(t *testing.T) {
	o := Options{Quick: true}.WithDefaults()
	spec, err := o.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	for _, cfg := range []struct {
		algo string
		p    int
		halo bool
	}{{"1d", 4, false}, {"1.5d", 4, false}, {"2d", 4, false}, {"3d", 8, false}, {"1d", 4, true}, {"1.5d", 4, true}} {
		name := fmt.Sprintf("%s P=%d halo=%v", cfg.algo, cfg.p, cfg.halo)
		got, err := MeasureEpoch(ds, cfg.algo, cfg.p, cfg.halo, o.Machine)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceEpoch(t, ds, cfg.algo, cfg.p, cfg.halo, o.Machine)
		near := func(what string, g, w float64) {
			if math.Abs(g-w) > 1e-12*math.Abs(w) {
				t.Errorf("%s %s: %v s, two runs read %v", name, what, g, w)
			}
		}
		near("bulk", got.EpochTime, want.EpochTime)
		near("critical path", got.CriticalPathTime, want.CriticalPathTime)
		near("hidden", got.HiddenCommTime, want.HiddenCommTime)
		near("once", got.OnceTime, want.OnceTime)
		for _, cat := range comm.AllCategories {
			near(string(cat), got.TimeByCat[cat], want.TimeByCat[cat])
			near(string(cat)+" once", got.OnceTimeByCat[cat], want.OnceTimeByCat[cat])
			if got.WordsByCat[cat] != want.WordsByCat[cat] || got.OnceWordsByCat[cat] != want.OnceWordsByCat[cat] ||
				got.MsgsByCat[cat] != want.MsgsByCat[cat] {
				t.Errorf("%s %s: %d words, %d once, %d msgs; two runs read %d, %d, %d", name, cat,
					got.WordsByCat[cat], got.OnceWordsByCat[cat], got.MsgsByCat[cat],
					want.WordsByCat[cat], want.OnceWordsByCat[cat], want.MsgsByCat[cat])
			}
		}
		if got.PeakMemWords != want.PeakMemWords {
			t.Errorf("%s: peak %d words, the 1-epoch run's %d", name, got.PeakMemWords, want.PeakMemWords)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Machine.Name != costmodel.SummitSim.Name {
		t.Fatalf("default machine = %q", o.Machine.Name)
	}
}

func TestQuickDatasetSmaller(t *testing.T) {
	full, err := Options{}.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	q, err := quick.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	if q.Scale >= full.Scale {
		t.Fatal("quick dataset should be smaller")
	}
	if _, err := quick.dataset("unknown"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestMeasureEpoch(t *testing.T) {
	spec, err := quick.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	m, err := MeasureEpoch(ds, "2d", 4, false, costmodel.Summit)
	if err != nil {
		t.Fatal(err)
	}
	if m.EpochTime <= 0 {
		t.Fatalf("epoch time = %v", m.EpochTime)
	}
	if m.Throughput() <= 0 {
		t.Fatal("throughput should be positive")
	}
	if m.WordsByCat[comm.CatDenseComm] <= 0 {
		t.Fatalf("missing traffic: %v", m.WordsByCat)
	}
	// Static operands cross the network once: the sparse row panels are in
	// the once-per-run part and a steady-state epoch has none. The analog is
	// symmetric, so the mesh transposes nothing; on a directed copy — one
	// edge's reverse dropped — its one transpose exchange joins the
	// once-per-run part and a steady-state epoch still has none.
	if m.WordsByCat[comm.CatSparseComm] != 0 || m.WordsByCat[comm.CatTranspose] != 0 {
		t.Fatalf("steady-state epoch moves sparse words: %v", m.WordsByCat)
	}
	if m.OnceWordsByCat[comm.CatSparseComm] <= 0 || m.OnceTimeByCat[comm.CatSparseComm] <= 0 ||
		m.OnceWordsByCat[comm.CatTranspose] != 0 || m.OnceTimeByCat[comm.CatTranspose] != 0 {
		t.Fatalf("once-per-run part on a symmetric A: want sparse panels and no transpose, got %v %v", m.OnceWordsByCat, m.OnceTimeByCat)
	}
	directed := *ds
	directed.Graph = graph.New(ds.Graph.NumVertices)
	var cut [2]int
	for _, e := range ds.Graph.Edges {
		if e[0] != e[1] {
			cut = [2]int{e[1], e[0]}
			break
		}
	}
	for _, e := range ds.Graph.Edges {
		if e != cut {
			directed.Graph.AddEdge(e[0], e[1])
		}
	}
	dm, err := MeasureEpoch(&directed, "2d", 4, false, costmodel.Summit)
	if err != nil {
		t.Fatal(err)
	}
	if dm.WordsByCat[comm.CatSparseComm] != 0 || dm.WordsByCat[comm.CatTranspose] != 0 {
		t.Fatalf("steady-state epoch on a directed A moves sparse words: %v", dm.WordsByCat)
	}
	if dm.OnceWordsByCat[comm.CatSparseComm] <= m.OnceWordsByCat[comm.CatSparseComm] ||
		dm.OnceWordsByCat[comm.CatTranspose] <= 0 || dm.OnceTimeByCat[comm.CatTranspose] <= 0 {
		t.Fatalf("once-per-run part on a directed A: want a second panel set and the transpose, got %v %v", dm.OnceWordsByCat, dm.OnceTimeByCat)
	}
	if m.OnceTime <= 0 || m.OnceWordsByCat[comm.CatDenseComm] <= 0 {
		t.Fatalf("once-per-run part: %v s, words %v", m.OnceTime, m.OnceWordsByCat)
	}
	if m.TimeByCat[comm.CatSpMM] <= 0 {
		t.Fatalf("missing spmm time: %v", m.TimeByCat)
	}
	if m.CommWords() <= 0 {
		t.Fatal("CommWords should be positive")
	}
}

func TestMeasureEpochUnknownAlgo(t *testing.T) {
	spec, _ := quick.dataset("reddit-sim")
	ds := spec.Build()
	if _, err := MeasureEpoch(ds, "bogus", 4, false, costmodel.Summit); err == nil {
		t.Fatal("expected error")
	}
	if _, err := MeasureEpoch(ds, "serial", 4, false, costmodel.Summit); err == nil {
		t.Fatal("serial should be rejected (no cluster ledger)")
	}
	// The rejection comes before any problem is built or trained: an empty
	// dataset, which has no graph to normalize, must fail the same way.
	if _, err := MeasureEpoch(&graph.Dataset{}, "serial", 4, false, costmodel.Summit); err == nil {
		t.Fatal("serial on an empty dataset should be rejected before training")
	}
	if _, err := MeasureEpoch(ds, "2d", 4, true, costmodel.Summit); err == nil {
		t.Fatal("halo should be rejected on the mesh (not a row decomposition)")
	}
}

// TestFig2QuickShape runs a reduced Figure 2 sweep and validates the
// qualitative shapes: per-dataset rows present, epoch time finite.
func TestFig2QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	// Restrict to a single small dataset sweep for test runtime by
	// measuring directly rather than the full Fig2.
	spec, err := quick.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	var prev EpochMeasurement
	for i, p := range []int{4, 16} {
		m, err := MeasureEpoch(ds, "2d", p, false, costmodel.Summit)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			// Dense communication *words* must fall with P (the √P law).
			// Time need not fall at this scale: small broadcasts are
			// latency-bound, exactly the paper's Reddit observation
			// (§VI-b).
			if m.WordsByCat[comm.CatDenseComm] >= prev.WordsByCat[comm.CatDenseComm] {
				t.Fatalf("dcomm words should fall from P=4 to P=16: %v vs %v",
					prev.WordsByCat[comm.CatDenseComm], m.WordsByCat[comm.CatDenseComm])
			}
		}
		prev = m
	}
}

func TestTableVI(t *testing.T) {
	rows, err := TableVI(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PaperVertices == 0 || r.SimVertices == 0 || r.SimEdges == 0 {
			t.Fatalf("incomplete row %+v", r)
		}
		if r.SimAvgDegree <= 0 {
			t.Fatalf("bad degree in %+v", r)
		}
	}
	// Protein must remain the densest analog, Amazon the sparsest,
	// matching Table VI's degree ordering.
	deg := map[string]float64{}
	for _, r := range rows {
		deg[r.Name] = r.SimAvgDegree
	}
	if !(deg["amazon-sim"] < deg["reddit-sim"] && deg["amazon-sim"] < deg["protein-sim"]) {
		t.Fatalf("degree ordering violated: %v", deg)
	}
}

func TestPartitionExperiment(t *testing.T) {
	res, err := PartitionExperiment(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomTotalCut == 0 || res.GreedyTotalCut == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// The paper's qualitative finding: total reduction exceeds max
	// reduction (smart partitioning helps the sum much more than the
	// bottleneck process).
	if res.TotalReduction < res.MaxReduction-0.05 {
		t.Fatalf("total reduction (%.2f) should exceed max reduction (%.2f)",
			res.TotalReduction, res.MaxReduction)
	}
	// End-to-end training acceptance: the sparsity-aware exchange moves
	// strictly fewer dense words than the broadcast baseline under either
	// partition, and the smart partition beats random in total words.
	if res.RandomHaloTotalWords >= res.BroadcastTotalWords ||
		res.GreedyHaloTotalWords >= res.BroadcastTotalWords ||
		res.RandomHaloMaxWords >= res.BroadcastMaxWords ||
		res.GreedyHaloMaxWords >= res.BroadcastMaxWords {
		t.Fatalf("halo words must be strictly below the broadcast baseline: %+v", res)
	}
	if res.GreedyHaloTotalWords >= res.RandomHaloTotalWords {
		t.Fatalf("LDG greedy total halo words (%d) should be below random blocks (%d)",
			res.GreedyHaloTotalWords, res.RandomHaloTotalWords)
	}
	// The measured ledger must equal the costmodel.OneDSymmetric
	// edgecut-based prediction exactly (per-rank max and total).
	if !res.LedgerMatchesAnalytic {
		t.Fatalf("halo ledger deviates from the edgecut bound: %+v", res)
	}
	// The partitioner reaches the whole epoch: all a halo epoch moves that
	// does not follow the cut is the weight all-reduces, 2·Σ f^{l-1}·f^l
	// words on each rank at the experiment's widths [16, 16, 8]. The rest —
	// the forward fetch and the backward fetch alike — is proportional to
	// the rows the parts receive, so it falls from random to greedy by
	// exactly the factor Σᵢ rᵢ does.
	fixed := int64(res.P) * 2 * (16*16 + 16*8)
	if r, g := res.RandomHaloTotalWords-fixed, res.GreedyHaloTotalWords-fixed; r <= 0 || g <= 0 ||
		r*int64(res.GreedyRecvRows) != g*int64(res.RandomRecvRows) {
		t.Fatalf("halo words beyond the %d of the all-reduces: random %d over %d recv rows, greedy %d over %d — not proportional",
			fixed, r, res.RandomRecvRows, g, res.GreedyRecvRows)
	}
	// §IV-A-8's asymmetry on a real trainer: the total-volume saving of
	// the smart partition exceeds the per-rank-max saving that bounds
	// bulk-synchronous runtime.
	if res.HaloTotalReduction < res.HaloMaxReduction-0.05 {
		t.Fatalf("halo total reduction (%.2f) should exceed max reduction (%.2f)",
			res.HaloTotalReduction, res.HaloMaxReduction)
	}
}

// TestMeasureEpochOptsHalo: a measurement over the sparsity-aware halo
// exchange must show it moving fewer dense words than the broadcast
// default, for both row algorithms.
func TestMeasureEpochOptsHalo(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	spec, err := quick.dataset("amazon-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	for _, algo := range []string{"1d", "1.5d"} {
		base, err := MeasureEpoch(ds, algo, 4, false, quick.Machine)
		if err != nil {
			t.Fatal(err)
		}
		halo, err := MeasureEpoch(ds, algo, 4, true, quick.Machine)
		if err != nil {
			t.Fatal(err)
		}
		if !halo.Halo || base.Halo {
			t.Fatalf("%s: Halo marks %v/%v, want true/false", algo, halo.Halo, base.Halo)
		}
		if halo.WordsByCat[comm.CatDenseComm] >= base.WordsByCat[comm.CatDenseComm] {
			t.Fatalf("%s: halo dcomm %d should be below broadcast %d",
				algo, halo.WordsByCat[comm.CatDenseComm], base.WordsByCat[comm.CatDenseComm])
		}
	}
}

// TestMeasureEpochOptsOverlap: every measurement carries the critical-path
// reading beside the bulk one, off the same runs. On a pipelined 2D run the
// critical path is shorter, and the gap is communication hidden behind
// compute: per rank, critical path = bulk − hidden, so across ranks the
// critical path is at least bulk − hidden, and what is hidden was charged.
func TestMeasureEpochOptsOverlap(t *testing.T) {
	spec, err := quick.dataset("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := spec.Build()
	m, err := MeasureEpoch(ds, "2d", 16, false, costmodel.SummitSim)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.CriticalPathTime < m.EpochTime) {
		t.Fatalf("critical path %v not below bulk %v", m.CriticalPathTime, m.EpochTime)
	}
	if !(m.HiddenCommTime > 0 && m.HiddenCommTime <= m.CommTime()) {
		t.Fatalf("hidden %v outside (0, charged comm %v]", m.HiddenCommTime, m.CommTime())
	}
	if m.CriticalPathTime < m.EpochTime-m.HiddenCommTime-1e-9*m.EpochTime {
		t.Fatalf("critical path %v below bulk %v minus hidden %v", m.CriticalPathTime, m.EpochTime, m.HiddenCommTime)
	}
}

// TestCrossoverQuick pins the crossover sweep's words to the terms of a
// steady-state epoch on the quick amazon analog, n = 2048, widths
// [112, 16, 24], L = 2 — to the word at every P, counted on the heaviest
// rank's own block sizes where the grid does not divide n and every width
// (P = 36).
//
// 1D, broadcast mode: layer 2's two aggregations at m = min(f¹, f²) = f¹,
// each P broadcasts of a block row with its 2-word header, and the two
// weight all-reduces at twice their length.
//
// 2D on the q x q grid: a sweep of an n x f matrix — a SUMMA SpMM's dense
// panels or a row gather, the same — is q panels of (n/q)·(f/q) + 2 words on
// every rank. Layer 2 widens into the output log-softmax, so it aggregates
// first and runs row-split inside each process row: forward the SUMMA at f¹
// and one all-to-all of T² at f¹ into the row layout; backward one
// all-to-all of ∂L/∂T² at f¹ back out, the SUMMA at f¹ and, for Y¹, the
// gather of G¹ at f¹ — three sweeps, and no sparse panel: the mesh holds
// them. An all-to-all moves a rank's block, (n/q)·(f/q) words with no
// header, but for the 1/q it keeps. Y² is one world all-reduce (f¹·f²
// words, twice); Y¹ is all-reduced down the column ((f⁰/q)·f¹ words, twice)
// and gathered along the row (f⁰·f¹ plus q headers).
//
// The analytic column is the paper's accounting, not this count:
// costmodel.TwoDOverOneDSteadyWordRatio keeps §IV-C-5's 8nf/√P of dense
// words per layer, 8L − 3 = 13 sweeps for this network where the trainer
// moves three and two all-to-alls (no panels for G·Wᵀ, one gather serving
// Y and ∂L/∂H, the element-wise ReLU gathering nothing, and none of
// Algorithm 2's log-softmax gathers). The measurement sits at
// 3/(2√P) + (√P − 1)/P^{3/2} of 1D's two aggregations, (1.5 + (q − 1)/q²)/6.5
// ≈ 0.25–0.27 of the formula's 6.5/√P before the weight all-reduces, and
// 2D wins from the 2 x 2 grid on.
func TestCrossoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	rows, err := Crossover(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	const n, f0, f1, f2 = 2048, 112, 16, 24
	const weights = f0*f1 + f1*f2
	oneD := func(p int64) int64 { return 2*(n*f1+2*p) + 2*weights }
	// The heaviest rank of the grid, each rank (i, j) with its own block
	// sizes: R rows (block i of n), C(f) columns of a width-f operand
	// (block j of f) and S output-layer rows (block j of R).
	twoD := func(q int64) int64 {
		blk := func(m, k int64) int64 { return (k+1)*m/q - k*m/q }
		var most int64
		for i := range q {
			for j := range q {
				R, S := blk(n, i), blk(blk(n, i), j)
				C := func(f int64) int64 { return blk(f, j) }
				sweeps := 2*(n*C(f1)+2*q) + R*f1 + 2*q // two SUMMAs' column panels, the row gather of G¹
				allToAlls := (R-S)*C(f1) + S*(f1-C(f1))
				weights := 2*f1*f2 + 2*C(f0)*f1 + f0*f1 + 2*q
				most = max(most, sweeps+allToAlls+weights)
			}
		}
		return most
	}
	for i, r := range rows {
		q := int64(math.Round(math.Sqrt(float64(r.P))))
		if r.OneDWords != oneD(int64(r.P)) {
			t.Fatalf("P=%d: 1D moves %d words per steady-state epoch, the terms give %d", r.P, r.OneDWords, oneD(int64(r.P)))
		}
		if want := twoD(q); r.TwoDWords != want {
			t.Fatalf("P=%d: 2D moves %d words per steady-state epoch, the terms give %d", r.P, r.TwoDWords, want)
		}
		if i > 0 && r.MeasuredRatio >= rows[i-1].MeasuredRatio {
			t.Fatalf("2D/1D ratio should fall with P: %+v", rows)
		}
		if want := 6.5 / float64(q); math.Abs(r.AnalyticRatio-want) > 1e-12 {
			t.Fatalf("P=%d: analytic ratio %v, want (8L−3)/(2(L−1)√P) = %v", r.P, r.AnalyticRatio, want)
		}
		if rel := r.MeasuredRatio / r.AnalyticRatio; rel < 0.25 || rel > 0.3 {
			t.Fatalf("P=%d: measured ratio %v vs the paper-form %v (×%.3f): three sweeps and two all-to-alls against thirteen sweeps should put it at (1.5 + (q−1)/q²)/6.5 plus the weights", r.P, r.MeasuredRatio, r.AnalyticRatio, rel)
		}
		if r.MeasuredRatio >= 1 {
			t.Fatalf("at P=%d the ratio is %v: 2D should win on every grid of the sweep, 2 x 2 included (1.5/√P + (√P−1)/P^{3/2})", r.P, r.MeasuredRatio)
		}
	}
}

// familyOnce caches the family experiment for the tests that read its rows:
// six configurations at P = 64 are trained once per test binary.
var familyOnce struct {
	sync.Once
	byName map[string]EpochMeasurement
	ms     []EpochMeasurement
	err    error
}

// familyQuick returns the quick family rows, keyed by algorithm with a
// "-halo" suffix for the sparsity-aware variants.
func familyQuick(t *testing.T) map[string]EpochMeasurement {
	t.Helper()
	familyOnce.Do(func() {
		familyOnce.ms, familyOnce.err = Family(Options{Quick: true, Machine: costmodel.SummitSim})
		familyOnce.byName = map[string]EpochMeasurement{}
		for _, m := range familyOnce.ms {
			name := m.Algorithm
			if m.Halo {
				name += "-halo"
			}
			familyOnce.byName[name] = m
		}
	})
	if familyOnce.err != nil {
		t.Fatal(familyOnce.err)
	}
	return familyOnce.byName
}

// TestFamilyQuick: the family experiment covers every algorithm family and
// the halo variants of the row decompositions, all on the protein analog at
// P = 64, and the sparsity-aware exchange moves fewer dense words than the
// broadcast, for both row algorithms. The rows' time readings are checked by
// TestOverlapExperimentQuick, their words and memory by TestAlgo3DQuick.
func TestFamilyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	byName := familyQuick(t)
	if len(familyOnce.ms) != 6 || len(byName) != 6 {
		t.Fatalf("got %d rows (%d distinct), want 6", len(familyOnce.ms), len(byName))
	}
	for name, m := range byName {
		if m.P != 64 || m.Dataset != "protein-sim" {
			t.Fatalf("%s: measured %s at P=%d, want protein-sim at 64", name, m.Dataset, m.P)
		}
	}
	for _, algo := range []string{"1d", "1.5d"} {
		halo, bcast := byName[algo+"-halo"].WordsByCat[comm.CatDenseComm], byName[algo].WordsByCat[comm.CatDenseComm]
		if halo >= bcast {
			t.Fatalf("%s: halo dcomm %d should be below broadcast %d", algo, halo, bcast)
		}
	}
}

// TestOverlapExperimentQuick: the family rows' two times are readings of one
// schedule's ledger: the critical path is never above bulk, and the
// pipelined families — 1d, 1.5d, 2d, 3d — strictly beat bulk with
// something hidden. The halo variants only improve with an interior, which
// the R-MAT analog barely has; they must never regress.
func TestOverlapExperimentQuick(t *testing.T) {
	byName := familyQuick(t)
	for name, m := range byName {
		if m.CriticalPathTime > m.EpochTime {
			t.Fatalf("%s: critical path %v regressed past bulk %v", name, m.CriticalPathTime, m.EpochTime)
		}
		if m.CommTime() <= 0 || m.ComputeTime() <= 0 {
			t.Fatalf("%s: degenerate breakdown %+v", name, m)
		}
	}
	for _, name := range []string{"1d", "1.5d", "2d", "3d"} {
		m := byName[name]
		if !(m.CriticalPathTime < m.EpochTime) {
			t.Fatalf("%s: critical path %v not strictly below bulk %v", name, m.CriticalPathTime, m.EpochTime)
		}
		if m.EpochTime/m.CriticalPathTime <= 1 {
			t.Fatalf("%s: speedup %v not above 1", name, m.EpochTime/m.CriticalPathTime)
		}
		if m.HiddenCommTime <= 0 {
			t.Fatalf("%s: nothing hidden", name)
		}
	}
}

// TestAlgo3DQuick: the family rows' peak column carries what the mesh
// trainers hold to save words. The analog is symmetric, so both hold one
// set of row panels, read by forward and backward alike: at P = 64 a 2D
// rank (8 x 8 grid) keeps its grid row's block row of A = Aᵀ,
// 2·nnz(rows) + 8·(n/8 + 1) words, and a 3D rank (4 x 4 x 4 mesh) the same
// over its layer's quarter of the columns; each reported peak must hold at
// least the heaviest rank's panels. The orderings that follow from the
// formulas: 3D's set at nnz/P^{2/3} is below 2D's at nnz/√P, and 1D, which
// holds nnz/P and nothing replicated, is below both.
func TestAlgo3DQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	byName := familyQuick(t)
	if byName["3d"].Replication() <= 1 {
		t.Fatal("3D must report replication > 1")
	}
	if byName["3d"].CommWords() <= 0 || byName["2d"].CommWords() <= 0 {
		t.Fatalf("missing words: %+v", familyOnce.ms)
	}

	spec, err := quick.dataset("protein-sim")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Build().Graph.NormalizedAdjacency()
	// panels returns the heaviest rank's held sparse words on a q x q x d
	// mesh: per grid row i and layer k, the q blocks of rows vBlk(i) over the
	// column sub-slices (·, k).
	panels := func(q, d int) int64 {
		vBlk := partition.NewBlock1D(a.Rows, q)
		var heaviest int64
		for i := 0; i < q; i++ {
			for k := 0; k < d; k++ {
				var words int64
				for j := 0; j < q; j++ {
					inner := partition.NewBlock1D(vBlk.Size(j), d)
					blk := a.ExtractBlock(vBlk.Lo(i), vBlk.Hi(i), vBlk.Lo(j)+inner.Lo(k), vBlk.Lo(j)+inner.Hi(k))
					words += 2*int64(blk.NNZ()) + int64(blk.Rows) + 1
				}
				heaviest = max(heaviest, words)
			}
		}
		return heaviest
	}
	twoD, threeD := panels(8, 1), panels(4, 4)
	if byName["2d"].PeakMemWords <= twoD || byName["3d"].PeakMemWords <= threeD {
		t.Fatalf("peaks 2D %d, 3D %d do not cover the held row panels %d, %d",
			byName["2d"].PeakMemWords, byName["3d"].PeakMemWords, twoD, threeD)
	}
	if !(threeD < twoD && byName["1d"].PeakMemWords < byName["3d"].PeakMemWords &&
		byName["3d"].PeakMemWords < byName["2d"].PeakMemWords) {
		t.Fatalf("held panels 3D %d, 2D %d; peaks 1D %d, 3D %d, 2D %d: want 1D below 3D below 2D", threeD, twoD,
			byName["1d"].PeakMemWords, byName["3d"].PeakMemWords, byName["2d"].PeakMemWords)
	}
}

func TestScalingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep in -short mode")
	}
	ms, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Scaling(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no scaling rows")
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Fatalf("non-positive measurement: %+v", r)
		}
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xx", "1"}, {"y", "22"}})
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "xx") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
}

func TestFormatFloat(t *testing.T) {
	if FormatFloat(0) != "0" {
		t.Fatal("zero formatting")
	}
	if s := FormatFloat(123456); !strings.Contains(s, "e") && len(s) > 8 {
		t.Fatalf("large float formatting: %q", s)
	}
	if FormatFloat(0.5) != "0.5000" {
		t.Fatalf("mid float: %q", FormatFloat(0.5))
	}
}

func TestFig2SweepsCoverDatasets(t *testing.T) {
	for _, d := range Fig2Datasets {
		if len(Fig2Sweeps[d]) == 0 {
			t.Fatalf("no sweep for %s", d)
		}
	}
	// Every sweep value must be a perfect square (2D grids), and every sweep
	// must ascend: Fig2 emits Fig2Datasets order × sweep order, and the
	// tables print its measurements as they come.
	for d, ps := range Fig2Sweeps {
		if !sort.IntsAreSorted(ps) {
			t.Fatalf("%s sweep %v does not ascend", d, ps)
		}
		for _, p := range ps {
			s := 0
			for s*s < p {
				s++
			}
			if s*s != p {
				t.Fatalf("%s sweep contains non-square %d", d, p)
			}
		}
	}
	_ = graph.Analogs // keep import meaningful if sweeps change
}
