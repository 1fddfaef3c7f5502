package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// trainCfg is one training run: everything that decides its result. The
// zero value of each field is the plain run — in-process on testMach, block
// layout, the pool's worker count, fresh start, fused ReLU.
type trainCfg struct {
	problem string // key into the matrix's problems
	opt     string // optimizer ("" = the problem's)
	algo    string
	p, c    int    // ranks (blocks, for a partitioned serial run) and 1.5d replication
	halo    bool   // row trainers: halo exchange instead of broadcast
	part    string // partitioner run over the graph at the row blocks (seed 7)
	tcp     bool   // loopback TCP instead of the in-process fabric
	slow    bool   // slowNetMach: every collective lands later on the timeline
	workers int    // kernel workers for this run
	resume  int    // train this many epochs checkpointing each, then resume to the end
	unfused bool   // hidden layers unfusedReLU
}

func (k trainCfg) String() string {
	s := k.problem
	if k.opt != "" {
		s += "/" + k.opt
	}
	s += "/" + k.algo
	if k.p > 0 {
		s += fmt.Sprintf("-p%d", k.p)
	}
	if k.c > 0 {
		s += fmt.Sprintf("-c%d", k.c)
	}
	for _, tag := range []struct {
		on   bool
		name string
	}{{k.halo, "halo"}, {k.part != "", k.part}, {k.tcp, "tcp"}, {k.slow, "slow-net"}, {k.unfused, "unfused"}} {
		if tag.on {
			s += "-" + tag.name
		}
	}
	if k.workers > 0 {
		s += fmt.Sprintf("-w%d", k.workers)
	}
	if k.resume > 0 {
		s += fmt.Sprintf("-resume%d", k.resume)
	}
	return s
}

// serialRef is the serial run k is held to: the same problem and
// optimizer, relabeled as k's row blocks when k runs a partitioner.
func (k trainCfg) serialRef() trainCfg {
	ref := trainCfg{problem: k.problem, opt: k.opt, algo: "serial"}
	if k.part != "" {
		ref.part, ref.p = k.part, k.p/max(k.c, 1)
	}
	return ref
}

// cell is one configuration of the equivalence matrix and what its run must
// satisfy.
type cell struct {
	trainCfg
	same    []trainCfg // runs whose digest this one's must equal
	tol     float64    // > 0: within tol of the serial run (requireNear)
	later   trainCfg   // a run whose modeled timeline this one's must trail
	ledgers trainCfg   // a run whose per-rank ledgers and peak memory this one's must equal
	long    bool       // skipped under -short
	ids     []string   // the ids of the tests whose checks this cell holds
}

// equivalenceMatrix is every bit-identity and every §V-A claim the trainers
// make, one cell per configuration, with the problems the cells train.
func equivalenceMatrix() ([]cell, map[string]func(*testing.T) (Problem, *graph.Graph)) {
	er := func(n, f, hidden, labels, epochs int, seed int64) func(*testing.T) (Problem, *graph.Graph) {
		return func(t *testing.T) (Problem, *graph.Graph) {
			return testProblemGraph(t, n, f, hidden, labels, epochs, seed)
		}
	}
	edge := func(n int, widths []int, epochs int, seed int64) func(*testing.T) (Problem, *graph.Graph) {
		return func(t *testing.T) (Problem, *graph.Graph) { return edgeProblem(t, n, widths, epochs, seed), nil }
	}
	problems := map[string]func(*testing.T) (Problem, *graph.Graph){
		"deep101":       func(t *testing.T) (Problem, *graph.Graph) { return deepMaskedProblemGraph(t, 101) },
		"deep102":       func(t *testing.T) (Problem, *graph.Graph) { return deepMaskedProblemGraph(t, 102) },
		"er24":          er(24, 6, 5, 3, 3, 77),
		"er40":          er(40, 7, 5, 4, 4, 11),
		"er41":          er(41, 5, 4, 3, 3, 75),
		"er44":          er(44, 7, 5, 4, 4, 31),
		"er48":          er(48, 8, 6, 5, 4, 13),
		"er54":          er(54, 8, 6, 5, 4, 16),
		"er96":          er(96, 9, 6, 4, 3, 36),
		"resume":        er(40, 6, 5, 4, 6, 21),
		"long":          edge(50, []int{7, 6, 4}, 25, 60),
		"epilogues":     edge(48, []int{8, 6, 12, 4}, 3, 81),
		"relu-operands": edge(48, []int{8, 12, 6, 4}, 3, 81),
		"masked":        func(t *testing.T) (Problem, *graph.Graph) { return maskedProblem(t, 63), nil },
		"er96-directed": func(t *testing.T) (Problem, *graph.Graph) {
			p := testProblem(t, 96, 9, 6, 4, 3, 36)
			ds := graph.Synthetic("directed", graph.ErdosRenyi(96, 5, rand.New(rand.NewSource(37))), 9, 6, 4, 38)
			p.A, p.Features, p.Labels = sparse.RowStochastic(ds.Graph.Adjacency()), ds.Features, ds.Labels
			return p, nil
		},
		"directed": func(t *testing.T) (Problem, *graph.Graph) {
			ds := graph.Synthetic("directed", graph.ErdosRenyi(36, 5, rand.New(rand.NewSource(19))), 6, 4, 3, 20)
			return Problem{
				A:        sparse.RowStochastic(ds.Graph.Adjacency()),
				Features: ds.Features,
				Labels:   ds.Labels,
				Config:   nn.Config{Widths: []int{6, 4, 3}, LR: 0.05, Epochs: 3, Seed: 21},
			}, nil
		},
	}
	var cells []cell
	index := map[trainCfg]int{}
	// add appends c; a second cell of the same run only adds its ids.
	add := func(c cell) {
		if i, ok := index[c.trainCfg]; ok {
			cells[i].ids = append(cells[i].ids, c.ids...)
			return
		}
		index[c.trainCfg] = len(cells)
		cells = append(cells, c)
	}
	on := func(problem string, ks ...trainCfg) []trainCfg {
		for i := range ks {
			ks[i].problem = problem
		}
		return ks
	}
	row := func(algo string, p, c int, halo bool) trainCfg { return trainCfg{algo: algo, p: p, c: c, halo: halo} }
	plain := func(algo string, p int) trainCfg { return trainCfg{algo: algo, p: p} }

	// The engine contract (§V-A at depth 4, a train mask, every optimizer):
	// every distributed configuration within equivTol of serial; the same
	// bits on a network a thousand times slower, whose timeline trails;
	// the halo exchange the same bits as the broadcast under either
	// partitioner's layout.
	for _, opt := range []string{"sgd", "momentum", "adam"} {
		for _, k := range on("deep101", row("1d", 5, 0, false), row("1d", 5, 0, true),
			row("1.5d", 6, 2, false), row("1.5d", 6, 2, true), plain("2d", 9), plain("3d", 8)) {
			k.opt = opt
			add(cell{trainCfg: k, tol: equivTol, ids: []string{"TestEngineCrossAlgorithmEquivalence/" + opt}})
			slow := k
			slow.slow = true
			add(cell{trainCfg: slow, same: []trainCfg{k}, later: k, ids: []string{"TestEngineOverlapEquivalence/" + opt}})
		}
		for _, part := range []string{"random", "ldg"} {
			for _, k := range on("deep101", row("1d", 5, 0, false), row("1.5d", 6, 2, false)) {
				k.opt, k.part = opt, part
				halo := k
				halo.halo = true
				add(cell{trainCfg: halo, same: []trainCfg{k}, tol: equivTol,
					ids: []string{"TestEngineHaloCrossAlgorithmEquivalence/" + opt + "/" + part}})
			}
		}
	}
	// Kernel workers and the wire change no bit.
	for _, k := range on("deep101", row("1d", 5, 0, true), plain("2d", 9)) {
		k.opt = "adam"
		one, eight, tcp := k, k, k
		one.workers, eight.workers, tcp.tcp = 1, 8, true
		add(cell{trainCfg: eight, same: []trainCfg{one, k}})
		add(cell{trainCfg: tcp, same: []trainCfg{k}})
	}
	for _, k := range on("deep102", row("1d", 6, 0, false), row("1.5d", 6, 2, false)) {
		k.part = "ldg"
		halo := k
		halo.halo = true
		add(cell{trainCfg: halo, same: []trainCfg{k}, ids: []string{"TestOverlapPartitionedHaloEquivalence"}})
	}

	// Each decomposition against serial across rank counts, uneven blocks,
	// a train mask and a long run (gradient descent amplifies a wrong
	// reduction: 25 epochs, 1e-7).
	matches := func(id, problem string, tol float64, long bool, ks ...trainCfg) {
		for _, k := range on(problem, ks...) {
			add(cell{trainCfg: k, tol: tol, long: long, ids: []string{id}})
		}
	}
	matches("TestOneDMatchesSerial", "er40", equivTol, false,
		plain("1d", 1), plain("1d", 2), plain("1d", 3), plain("1d", 4), plain("1d", 7), plain("1d", 8))
	matches("TestOneFiveDMatchesSerial", "er44", equivTol, false, row("1.5d", 1, 1, false), row("1.5d", 4, 1, false),
		row("1.5d", 4, 2, false), row("1.5d", 4, 4, false), row("1.5d", 8, 2, false), row("1.5d", 12, 3, false), row("1.5d", 6, 2, false))
	matches("TestTwoDMatchesSerial", "er48", equivTol, false, plain("2d", 1), plain("2d", 4), plain("2d", 9), plain("2d", 16))
	matches("TestThreeDMatchesSerial", "er54", equivTol, false, plain("3d", 1), plain("3d", 8), plain("3d", 27))
	matches("TestMaskedEquivalenceAllTrainers", "masked", equivTol, false,
		row("1d", 5, 0, false), row("1.5d", 6, 2, false), plain("2d", 9), plain("3d", 8))
	matches("TestLossMatchesAcrossEveryTrainerLongRun", "long", 1e-7, true,
		row("1d", 5, 0, false), row("1.5d", 6, 3, false), plain("2d", 9), plain("3d", 8))
	// Randomized shapes: graph size, widths, epochs and rank counts.
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 8; trial++ {
		n, f, hidden, labels, epochs := 24+rng.Intn(50), 2+rng.Intn(8), 2+rng.Intn(8), 2+rng.Intn(6), 1+rng.Intn(3)
		name := fmt.Sprintf("random%d", trial)
		problems[name] = er(n, f, hidden, labels, epochs, int64(1000+trial))
		oneD, square, cube, c := []int{2, 3, 4, 5, 6}[rng.Intn(5)], []int{1, 4, 9}[rng.Intn(3)], []int{1, 8}[rng.Intn(2)], 1+rng.Intn(2)
		matches("TestRandomizedEquivalenceSweep", name, equivTol, trial >= 3,
			plain("1d", oneD), row("1.5d", 2*c, c, false), plain("2d", square), plain("3d", cube))
	}
	// A directed A: the row trainers' backward runs over its own plan, the
	// mesh's over the blocks its transpose exchange builds.
	for _, m := range []struct {
		name string
		k    trainCfg
	}{{"1d", plain("1d", 4)}, {"1.5d/c=1", row("1.5d", 4, 1, false)}, {"1.5d/c=2", row("1.5d", 4, 2, false)}} {
		for _, halo := range []bool{false, true} {
			k, id := m.k, "TestDirectedGraphTrainers/"+m.name
			if halo {
				id += "/halo"
			}
			k.problem, k.halo = "directed", halo
			add(cell{trainCfg: k, tol: equivTol, ids: []string{id}})
		}
	}
	matches("TestDirectedGraphTrainers", "directed", equivTol, false, plain("2d", 4), plain("3d", 8))

	// 1d is 1.5d at c = 1 (§IV-B): the same bits, the same charges on every
	// rank in every category and the same peak memory, on an undirected
	// and a directed graph, in both exchange modes.
	for _, g := range []string{"er96", "er96-directed"} {
		for _, halo := range []bool{false, true} {
			oneD, oneFiveD := row("1d", 4, 0, halo), row("1.5d", 4, 1, halo)
			oneD.problem, oneFiveD.problem = g, g
			id := fmt.Sprintf("TestOneDIsOneFiveDAtOneReplica/%s/halo=%v/overlap=false", map[string]string{"er96": "symmetric", "er96-directed": "directed"}[g], halo)
			add(cell{trainCfg: oneFiveD, same: []trainCfg{oneD}, ledgers: oneD, ids: []string{id}})
		}
	}
	// The halo exchange with no partitioner, uneven blocks and one rank.
	for _, k := range on("er41", plain("1d", 1), plain("1d", 2), plain("1d", 6),
		row("1.5d", 4, 1, false), row("1.5d", 6, 3, false), row("1.5d", 4, 4, false)) {
		halo := k
		halo.halo = true
		add(cell{trainCfg: halo, same: []trainCfg{k}, ids: []string{"TestHaloDefaultLayoutBitIdentical"}})
	}
	// The same bits over loopback TCP, at a world that is not a power of
	// two too.
	for _, k := range on("er24", plain("1d", 3), row("1.5d", 4, 2, false), plain("2d", 4), plain("3d", 8)) {
		tcp := k
		tcp.tcp = true
		add(cell{trainCfg: tcp, same: []trainCfg{k}, ids: []string{fmt.Sprintf("TestTrainTCPBitIdentical/%s-p%d", k.algo, k.p)}})
	}

	// Every trainer: resumed from the epoch-3 snapshot of a checkpointed
	// run (Adam: step count and both moment buffers round-trip), it ends as
	// the uninterrupted run; and a hidden ReLU fused into the GEMM
	// epilogues ({8, 6, 12, 4}: forward at l = 1, through the mesh's partial
	// SUMMA at l = 2, the backward mask at l = 3), or one whose nonzeros the
	// products run over ({8, 12, 6, 4}: Y¹ over G¹'s, then the
	// multiply-first H^{l-1}·W^l and (H^{l-1})ᵀ·(A·G^l) over H^{l-1}'s, in
	// every partial SUMMA stage), is the run with unfusedReLU as separate
	// passes and dense products.
	trainers := []struct {
		name string
		k    trainCfg
	}{
		{"serial", trainCfg{algo: "serial"}},
		{"1d", plain("1d", 4)}, {"1d-halo-overlap", row("1d", 4, 0, true)}, {"1.5d-c2", row("1.5d", 4, 2, false)},
		{"2d", plain("2d", 4)}, {"3d", plain("3d", 8)},
	}
	for _, tr := range trainers {
		for _, relu := range [][2]string{
			{"epilogues", "TestFusedEpiloguesBitIdenticalEveryTrainer/"},
			{"relu-operands", "TestReLUSparseProductsBitIdenticalEveryTrainer/"},
		} {
			problem, id := relu[0], relu[1]
			k := tr.k
			k.problem = problem
			unfused := k
			unfused.unfused = true
			add(cell{trainCfg: k, same: []trainCfg{unfused}, ids: []string{id + tr.name}})
		}
		if tr.name == "1d-halo-overlap" {
			continue
		}
		clean := tr.k
		clean.problem, clean.opt = "resume", "adam"
		resumed := clean
		resumed.resume = 3
		name := strings.TrimSuffix(tr.name, "-c2")
		add(cell{trainCfg: resumed, same: []trainCfg{clean}, ids: []string{"TestCheckpointResumeBitIdentical/" + name}})
	}
	return cells, problems
}

// trained is one run of the matrix: its result and, for a distributed
// run, the cluster holding its ledgers.
type trained struct {
	res *Result
	cl  *comm.Cluster
}

// matrixRuns trains each configuration once and the serial reference once
// per problem, and keeps the runs for the cells that compare against them.
type matrixRuns struct {
	problems map[string]func(*testing.T) (Problem, *graph.Graph)
	runs     map[trainCfg]*trained
}

func newMatrixRuns(problems map[string]func(*testing.T) (Problem, *graph.Graph)) *matrixRuns {
	return &matrixRuns{problems: problems, runs: map[trainCfg]*trained{}}
}

// train returns k's run, training it the first time it is asked for.
func (m *matrixRuns) train(t *testing.T, k trainCfg) *trained {
	t.Helper()
	if r, ok := m.runs[k]; ok {
		return r
	}
	prob, g := m.problems[k.problem](t)
	if k.opt != "" {
		prob.Config.Optimizer = k.opt
	}
	if k.unfused {
		prob.Config.Hidden = unfusedReLU{}
	}
	mach := testMach
	if k.slow {
		mach = slowNetMach
	}
	if k.workers > 0 {
		prev := parallel.Workers()
		parallel.SetWorkers(k.workers)
		defer parallel.SetWorkers(prev)
	}
	build := func() Trainer {
		tr, err := NewTrainerReplicated(k.algo, k.p, k.c, mach)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	r := &trained{}
	run := func(p Problem) *Result {
		t.Helper()
		tr := build()
		if k.part != "" || k.halo {
			// A serial reference is relabeled as its peers' row blocks.
			row := tr
			if k.algo == "serial" {
				row = NewOneD(k.p, mach)
			}
			if _, err := ConfigureRowDecomposition(row, &p, g, k.part, k.halo, 7); err != nil {
				t.Fatal(err)
			}
		}
		var res *Result
		var err error
		switch {
		case k.tcp:
			res = trainOn(t, tr, tcpCluster(t, k.p), p)
		default:
			res, err = tr.Train(p)
		}
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if d, ok := tr.(DistTrainer); ok {
			r.cl = d.Cluster()
		}
		return res
	}
	if k.resume > 0 {
		dir := t.TempDir()
		half := prob
		half.Config.Epochs = k.resume
		half.Checkpoint = checkpoint.Options{Dir: dir, Every: 1}
		run(half)
		if p, err := checkpoint.Latest(dir); err != nil || filepath.Base(p) != fmt.Sprintf("ckpt-%08d.ckpt", k.resume) {
			t.Fatalf("%v: after %d epochs Latest = %q, %v", k, k.resume, p, err)
		}
		prob.Checkpoint = half.Checkpoint
	}
	r.res = run(prob)
	m.runs[k] = r
	return r
}

// check trains c and holds it to every claim the cell makes.
func (m *matrixRuns) check(t *testing.T, c cell) {
	t.Helper()
	if c.long && testing.Short() {
		t.Skip("long equivalence run")
	}
	name := c.trainCfg.String()
	got := m.train(t, c.trainCfg)
	for _, k := range c.same {
		requireSameRun(t, fmt.Sprintf("%s vs %v", name, k), got.res, m.train(t, k).res)
	}
	if c.tol > 0 {
		ref := m.train(t, c.serialRef()).res
		requireLearns(t, c.serialRef().String(), ref)
		requireNear(t, name, got.res, ref, c.tol)
	}
	if c.later != (trainCfg{}) {
		elapsed := func(cl *comm.Cluster) float64 { return cl.Max((*comm.Ledger).Reading).Elapsed }
		if fast, late := elapsed(m.train(t, c.later).cl), elapsed(got.cl); !(late > fast) {
			t.Fatalf("%s: timeline %v not behind %v's %v", name, late, c.later, fast)
		}
	}
	if c.ledgers != (trainCfg{}) {
		want := m.train(t, c.ledgers).cl
		requireSameLedgers(t, fmt.Sprintf("%s vs %v", name, c.ledgers), got.cl, want)
		for r := 0; r < want.Size(); r++ {
			if want.Ledger(r).ModelWords[comm.CatDenseComm] == 0 {
				t.Fatalf("%v rank %d moved no dense words: the comparison would prove nothing", c.ledgers, r)
			}
		}
	}
}

// requireLearns fails unless the named run is finite and, when it trained
// more than one epoch, its last epoch's loss is below its first: a
// reference that did not train — garbage from a buffer read after its
// release, say — would pass every comparison with runs garbled the same
// way. (The randomized sweep draws some one-epoch problems, whose single
// loss has no trend.)
func requireLearns(t *testing.T, name string, r *Result) {
	t.Helper()
	requireFinite(t, name, r)
	if first, last := r.Losses[0], r.Losses[len(r.Losses)-1]; len(r.Losses) > 1 && !(last < first) {
		t.Fatalf("%s: loss went %v → %v over %d epochs, did not decrease", name, first, last, len(r.Losses))
	}
}

// requireSameLedgers fails unless every rank of got charged what the same
// rank of want did: messages, words and seconds (bit for bit) in every
// category, peak memory, physical traffic, and its timeline's elapsed and
// hidden time.
func requireSameLedgers(t *testing.T, name string, got, want *comm.Cluster) {
	t.Helper()
	for r := 0; r < want.Size(); r++ {
		g, w := got.Ledger(r), want.Ledger(r)
		for _, cat := range comm.AllCategories {
			if g.ModelMsgs[cat] != w.ModelMsgs[cat] || g.ModelWords[cat] != w.ModelWords[cat] ||
				math.Float64bits(g.ModelTime[cat]) != math.Float64bits(w.ModelTime[cat]) {
				t.Fatalf("%s: rank %d %s charged %d msgs, %d words, %v s, want %d, %d, %v", name, r, cat,
					g.ModelMsgs[cat], g.ModelWords[cat], g.ModelTime[cat], w.ModelMsgs[cat], w.ModelWords[cat], w.ModelTime[cat])
			}
		}
		if g.PeakMemWords != w.PeakMemWords || g.PhysWordsSent != w.PhysWordsSent || g.PhysMsgsSent != w.PhysMsgsSent ||
			g.PhysWordsRecv != w.PhysWordsRecv || g.PhysMsgsRecv != w.PhysMsgsRecv ||
			g.Reading().Elapsed != w.Reading().Elapsed || g.Reading().Hidden != w.Reading().Hidden {
			t.Fatalf("%s: rank %d's peak memory, physical traffic or timeline %+v, want %+v", name, r, *g, *w)
		}
	}
}

// TestEquivalenceMatrix is the repo's equivalence claim, stronger than the
// paper's §V ("matches serial up to accumulation order"): each cell trains
// once and must share its digest with the runs it names — across fabric,
// worker count, network speed, resume, halo vs broadcast, fused vs unfused
// ReLU and 1d vs 1.5d at c = 1 — and, where it says so, stay within its
// tolerance of the serial run of its problem, trained once per problem.
func TestEquivalenceMatrix(t *testing.T) {
	cells, problems := equivalenceMatrix()
	m := newMatrixRuns(problems)
	for _, c := range cells {
		t.Run(c.trainCfg.String(), func(t *testing.T) { m.check(t, c) })
	}
}

// runIDs runs the matrix cells that hold the checks of the test t names,
// each id below it as the subtest it was: the tests the matrix replaced
// keep their ids (below) and train only their own cells.
func runIDs(t *testing.T) {
	cells, problems := equivalenceMatrix()
	m := newMatrixRuns(problems)
	var order []string
	byID := map[string][]cell{}
	for _, c := range cells {
		for _, id := range c.ids {
			if id == t.Name() || strings.HasPrefix(id, t.Name()+"/") {
				if byID[id] == nil {
					order = append(order, id)
				}
				byID[id] = append(byID[id], c)
			}
		}
	}
	if len(order) == 0 {
		t.Fatalf("no cell holds %s's checks", t.Name())
	}
	for _, id := range order {
		run := func(t *testing.T) {
			for _, c := range byID[id] {
				m.check(t, c)
			}
		}
		if sub := strings.TrimPrefix(id, t.Name()+"/"); sub != id {
			t.Run(sub, run)
		} else {
			run(t)
		}
	}
}

func TestEngineCrossAlgorithmEquivalence(t *testing.T)            { runIDs(t) }
func TestEngineHaloCrossAlgorithmEquivalence(t *testing.T)        { runIDs(t) }
func TestEngineOverlapEquivalence(t *testing.T)                   { runIDs(t) }
func TestOverlapPartitionedHaloEquivalence(t *testing.T)          { runIDs(t) }
func TestOneDMatchesSerial(t *testing.T)                          { runIDs(t) }
func TestOneFiveDMatchesSerial(t *testing.T)                      { runIDs(t) }
func TestTwoDMatchesSerial(t *testing.T)                          { runIDs(t) }
func TestThreeDMatchesSerial(t *testing.T)                        { runIDs(t) }
func TestLossMatchesAcrossEveryTrainerLongRun(t *testing.T)       { runIDs(t) }
func TestMaskedEquivalenceAllTrainers(t *testing.T)               { runIDs(t) }
func TestFusedEpiloguesBitIdenticalEveryTrainer(t *testing.T)     { runIDs(t) }
func TestReLUSparseProductsBitIdenticalEveryTrainer(t *testing.T) { runIDs(t) }
func TestTrainTCPBitIdentical(t *testing.T)                       { runIDs(t) }
func TestHaloDefaultLayoutBitIdentical(t *testing.T)              { runIDs(t) }
func TestCheckpointResumeBitIdentical(t *testing.T)               { runIDs(t) }
func TestRandomizedEquivalenceSweep(t *testing.T)                 { runIDs(t) }
func TestOneDIsOneFiveDAtOneReplica(t *testing.T)                 { runIDs(t) }
func TestDirectedGraphTrainers(t *testing.T)                      { runIDs(t) }

// requireSameRun fails unless got and want trained the same model bit for
// bit — one digest — and on a mismatch names the first loss, weight or
// output element whose bits differ.
func requireSameRun(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Digest() == want.Digest() {
		return
	}
	same := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %d %s values, want %d", name, len(g), what, len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v (bitwise)", name, what, i, g[i], w[i])
			}
		}
	}
	matrix := func(what string, g, w *dense.Matrix) {
		t.Helper()
		if g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: %s is %dx%d, want %dx%d", name, what, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		same(what, g.Data, w.Data)
	}
	same("loss", got.Losses, want.Losses)
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%s: %d weight matrices, want %d", name, len(got.Weights), len(want.Weights))
	}
	for l := range want.Weights {
		matrix(fmt.Sprintf("W[%d]", l), got.Weights[l], want.Weights[l])
	}
	matrix("output", got.Output, want.Output)
	t.Fatalf("%s: digests differ, yet every element agrees", name)
}

// TestResultDigest: equal results share a digest, and one flipped bit in a
// loss, a weight or an output element, a zero's sign, or a transposed shape
// each change it.
func TestResultDigest(t *testing.T) {
	result := func() *Result {
		return &Result{
			Losses:  []float64{1.5, 0.25},
			Weights: []*dense.Matrix{dense.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})},
			Output:  dense.FromRows([][]float64{{0, 1}, {2, 3}, {4, 5}}),
		}
	}
	want := result().Digest()
	if got := result().Digest(); got != want {
		t.Fatalf("equal results: digests %s and %s", got, want)
	}
	flip := func(x *float64) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1) }
	for name, mutate := range map[string]func(r *Result){
		"loss bit":          func(r *Result) { flip(&r.Losses[1]) },
		"weight bit":        func(r *Result) { flip(&r.Weights[0].Data[4]) },
		"output bit":        func(r *Result) { flip(&r.Output.Data[5]) },
		"+0 to −0":          func(r *Result) { r.Output.Data[0] = math.Copysign(0, -1) },
		"weight transposed": func(r *Result) { r.Weights[0].Rows, r.Weights[0].Cols = 3, 2 },
		"output transposed": func(r *Result) { r.Output.Rows, r.Output.Cols = 2, 3 },
	} {
		r := result()
		mutate(r)
		if r.Digest() == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}
