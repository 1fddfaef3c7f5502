package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	cagnet "repro"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// kernelReps is how many timed calls a kernel probe takes the median of
// (after one untimed call); commReps is the same for a collective.
const (
	kernelReps = 5
	commReps   = 7
	pingReps   = 100
)

// epochKernels are the probes that together make up the arithmetic of one
// epoch; on serial_wide they should account for most of epoch_s.
var epochKernels = []string{
	"sparse.spmmt_plan_s", "sparse.spmm_s", "sparse.spmm_rowlist_s",
	"dense.mul_s", "dense.tmul_s", "dense.mult_s", "dense.activation_s",
	"nn.loss_s", "nn.optimizer_step_s",
}

// prober accumulates the per-layer metrics of one traced pass. Every probe
// is one op of the pass and one span of its trace.
type prober struct {
	pass   *passResult
	rec    *recorder
	root   int // span id of the pass
	layers map[string]float64
	rng    *rand.Rand
}

// probe times reps calls of fn after one untimed call, adds the median to
// the metric, and returns it. A panic inside fn fails the op.
func (pr *prober) probe(metric string, reps int, fn func()) (med float64) {
	pr.pass.OpsAttempted++
	id := pr.rec.begin(metric, pr.root)
	defer pr.rec.end(id)
	defer func() {
		if r := recover(); r != nil {
			pr.pass.fail("probe %s: %v", metric, r)
		}
	}()
	if reps > 1 {
		fn()
	}
	secs := make([]float64, reps)
	for i := range secs {
		start := time.Now()
		fn()
		secs[i] = time.Since(start).Seconds()
	}
	med = median(secs)
	pr.layers[metric] += med
	return med
}

// random returns an r×c matrix of uniform values in [−1, 1).
func (pr *prober) random(r, c int) *dense.Matrix {
	m := dense.New(r, c)
	m.RandomInit(pr.rng, 1)
	return m
}

// aggKind names the sparse kernel a trainer aggregates with.
type aggKind int

const (
	aggPlanT   aggKind = iota // TransposePlan.SpMMT: bᵀ·x
	aggSpMM                   // sparse.SpMM: b·x
	aggRowList                // SpMMAddRowList over the halo plan's interior and frontier rows
)

// operands is rank 0's share of the workload's epoch under the workload's
// layout: its sparse block and the shapes its kernels run at. For 2D the
// dense shapes are the flop-equivalent of the SUMMA stages (feature
// dimension split √P ways), not each stage's exact slice.
type operands struct {
	b        *sparse.CSR
	fwd, bwd aggKind
	stages   int  // aggregation calls per product (SUMMA stages)
	fdiv     int  // ranks that share one feature row
	ranks    int  // rank goroutines sharing the kernel pool
	fused    bool // the serial trainer's fused bias+ReLU epilogues

	// Halo workload only: rank 0's plan and row split, and every rank's
	// fetch lists (needs[r][j] = rows rank r fetches from rank j).
	halo               *sparse.HaloPlan
	interior, frontier []int
	needs              [][][]int
}

// split is the per-rank share of a feature dimension.
func (op *operands) split(w int) int { return (w + op.fdiv - 1) / op.fdiv }

// setupProbes times what a Train call does once — normalisation,
// partitioning, block extraction and plans — and returns the operands the
// kernel and comm probes run on.
func (pr *prober) setupProbes(w workload, ds *graph.Dataset, seed int64) *operands {
	n := ds.Graph.NumVertices
	var a *sparse.CSR
	pr.probe("sparse.normalize_s", 1, func() { a = ds.Graph.NormalizedAdjacency() })
	op := &operands{stages: 1, fdiv: 1, ranks: 1}
	switch {
	case !w.distributed():
		op.b, op.fwd, op.bwd, op.fused = a, aggPlanT, aggSpMM, true
	case w.opts.Algorithm == "2d":
		q := partition.NewSquareGrid(World).ColRanks(0)
		blk := partition.NewBlock1D(n, len(q))
		op.b = a.Transpose().ExtractBlock(0, blk.Hi(0), 0, blk.Hi(0))
		op.fwd, op.bwd, op.stages, op.fdiv, op.ranks = aggSpMM, aggSpMM, len(q), len(q), World
	case w.opts.HaloExchange:
		var assign partition.Assignment
		pr.probe("partition.assign_s", 1, func() {
			assign = partition.LDG(ds.Graph, World, rand.New(rand.NewSource(seed)))
		})
		cut := partition.Edgecut(ds.Graph, assign)
		pr.layers["partition.edgecut_max"] = float64(cut.MaxRecvRows)
		pr.layers["partition.edgecut_total"] = float64(cut.TotalRecvRows)
		layout, order := assign.ContigLayout()
		at := sparse.ReorderSym(a, order).Transpose()
		offsets := partition.Offsets1D(layout)
		op.needs = make([][][]int, World)
		for r := World - 1; r >= 0; r-- {
			blk := at.ExtractBlock(layout.Lo(r), layout.Hi(r), 0, n)
			build := func() { op.halo = sparse.BuildHaloPlan(blk, offsets, r) }
			if r == 0 {
				op.b = blk
				pr.probe("sparse.halo_plan_s", 1, build)
			} else {
				build()
			}
			op.needs[r] = op.halo.Need
		}
		op.interior, op.frontier = rowSplit(op.halo, 0)
		op.fwd, op.bwd, op.ranks = aggRowList, aggPlanT, World
	default: // 1D broadcast
		blk := partition.NewBlock1D(n, World)
		op.b = a.Transpose().ExtractBlock(0, blk.Hi(0), 0, n)
		op.fwd, op.bwd, op.ranks = aggSpMM, aggPlanT, World
	}
	pr.probe("sparse.plan_build_s", 1, func() { sparse.NewTransposePlan(op.b) })
	return op
}

// rowSplit lists the rows of the owner's block with no nonzero in any
// remote block (interior) and the rest (frontier), as the overlapped halo
// trainer splits them.
func rowSplit(plan *sparse.HaloPlan, me int) (interior, frontier []int) {
	for i := 0; i < plan.Blocks[me].Rows; i++ {
		remote := false
		for j, b := range plan.Blocks {
			if j != me && b.RowPtr[i+1] > b.RowPtr[i] {
				remote = true
				break
			}
		}
		if remote {
			frontier = append(frontier, i)
		} else {
			interior = append(interior, i)
		}
	}
	return interior, frontier
}

// kernelProbes times every kernel of rank 0's epoch at the workload's
// shapes and sums each family over the GCN's layers, so each metric reads
// in seconds per epoch-equivalent.
func (pr *prober) kernelProbes(op *operands, ds *graph.Dataset) {
	if op.ranks > 1 {
		// Inside a rank the kernels share the pool with the other ranks.
		defer parallel.EnterRanks(op.ranks)()
	}
	cfg := nn.Config{Widths: ds.LayerWidths(), LR: 0.01}.WithDefaults()
	widths, L := cfg.Widths, cfg.Layers()
	rows := op.b.Rows
	plan := sparse.NewTransposePlan(op.b)
	var sparseFlops, sparseSecs, denseFlops float64

	aggregate := func(kind aggKind, width int) {
		var metric string
		var call func()
		switch kind {
		case aggPlanT:
			dst, x := dense.New(op.b.Cols, width), pr.random(rows, width)
			metric, call = "sparse.spmmt_plan_s", func() { plan.SpMMT(dst, x) }
		case aggSpMM:
			dst, x := dense.New(rows, width), pr.random(op.b.Cols, width)
			metric, call = "sparse.spmm_s", func() { sparse.SpMM(dst, op.b, x) }
		case aggRowList:
			dst := dense.New(rows, width)
			xs := make([]*dense.Matrix, len(op.halo.Blocks))
			for j, blk := range op.halo.Blocks {
				xs[j] = pr.random(blk.Cols, width)
			}
			metric, call = "sparse.spmm_rowlist_s", func() {
				sparse.SpMMAddRowList(dst, op.halo.Blocks[0], xs[0], op.interior)
				for j, blk := range op.halo.Blocks {
					sparse.SpMMAddRowList(dst, blk, xs[j], op.frontier)
				}
			}
		}
		// The probe times one stage; a product runs op.stages of them.
		secs := pr.probe(metric, kernelReps, call)
		pr.layers[metric] += secs * float64(op.stages-1)
		sparseSecs += secs * float64(op.stages)
		sparseFlops += float64(sparse.SpMMFlops(op.b, width)) * float64(op.stages)
	}
	gemm := func(m, k, n int) { denseFlops += 2 * float64(m) * float64(k) * float64(n) }

	for l := 1; l <= L; l++ {
		wPrev, wl := widths[l-1], op.split(widths[l])
		aggregate(op.fwd, op.split(wPrev))
		dst, t, wm := dense.New(rows, wl), pr.random(rows, wPrev), pr.random(wPrev, wl)
		relu := l < L
		if relu && op.fused {
			pr.probe("dense.mul_s", kernelReps, func() { dense.MulBiasReLU(dst, t, wm, nil) })
		} else {
			pr.probe("dense.mul_s", kernelReps, func() { dense.Mul(dst, t, wm) })
		}
		gemm(rows, wPrev, wl)
		if relu && !op.fused {
			z, g := pr.random(rows, wl), pr.random(rows, wl)
			pr.probe("dense.activation_s", kernelReps, func() {
				dense.ReLU{}.Forward(dst, z)
				dense.ReLU{}.Backward(dst, g, z)
			})
		}
	}
	out := widths[L]
	z, g, dst := pr.random(rows, out), pr.random(rows, out), dense.New(rows, out)
	pr.probe("dense.activation_s", kernelReps, func() {
		dense.LogSoftmax{}.Forward(dst, z)
		dense.LogSoftmax{}.Backward(dst, g, z)
	})
	pr.probe("nn.loss_s", kernelReps, func() {
		nn.NLLLossMaskedInto(dst, z, ds.Labels[:rows], nil, 0, ds.Graph.NumVertices)
	})
	for l := L; l >= 1; l-- {
		wPrev, wl := op.split(widths[l-1]), widths[l]
		aggregate(op.bwd, op.split(wl))
		ag, hPrev, dW := pr.random(rows, wl), pr.random(rows, wPrev), dense.New(wPrev, wl)
		pr.probe("dense.tmul_s", kernelReps, func() { dense.TMul(dW, hPrev, ag) })
		gemm(wPrev, rows, wl)
		if l > 1 {
			dH, wm := dense.New(rows, wPrev), pr.random(wPrev, wl)
			if op.fused {
				pr.probe("dense.mult_s", kernelReps, func() { dense.MulTReLUMask(dH, ag, wm, hPrev) })
			} else {
				pr.probe("dense.mult_s", kernelReps, func() { dense.MulT(dH, ag, wm) })
			}
			gemm(rows, wl, wPrev)
		}
	}
	weights, opt := nn.InitWeights(cfg), cfg.NewOptimizer()
	grads := make([]*dense.Matrix, L)
	for l := range grads {
		grads[l] = pr.random(weights[l].Rows, weights[l].Cols)
	}
	pr.probe("nn.optimizer_step_s", 4*kernelReps, func() { opt.Step(weights, grads) })

	pr.layers["sparse.flops_per_epoch"] = sparseFlops
	pr.layers["dense.flops_per_epoch"] = denseFlops
	if sparseSecs > 0 {
		pr.layers["sparse.gflops"] = sparseFlops / sparseSecs / 1e9
	}
}

// dispatchProbe times one fan-out/join of the kernel pool over an empty
// body, outside any rank (inside one the kernels run inline).
func (pr *prober) dispatchProbe() {
	pr.probe("parallel.dispatch_s", 200, func() {
		parallel.Rows(1<<16, 1<<30, func(lo, hi int) {})
	})
}

// onFabric runs body on every rank of a fresh World-rank fabric — the
// loopback TCP mesh or the in-process cluster — and returns how long the
// fabric took to build.
func onFabric(tcp bool, body func(c *comm.Comm)) (setup float64, err error) {
	cost := comm.CostParams{Alpha: costmodel.Laptop.Alpha, Beta: costmodel.Laptop.Beta}
	start := time.Now()
	if !tcp {
		cl := comm.NewCluster(World, cost)
		setup = time.Since(start).Seconds()
		return setup, cl.Run(func(c *comm.Comm) error { body(c); return nil })
	}
	comms, err := comm.LocalTCPComms(World, cost)
	if err != nil {
		return 0, err
	}
	setup = time.Since(start).Seconds()
	defer func() {
		for _, c := range comms {
			c.Transport().Close()
		}
	}()
	defer parallel.EnterRanks(World)()
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	return setup, nil
}

// collective is one timed collective of the comm probe: every rank times
// each of its reps calls, and a call costs what its slowest rank saw.
type collective struct {
	perRank [World][]float64
}

func (cl *collective) time(c *comm.Comm, reps int, call func()) {
	secs := make([]float64, reps)
	for k := range secs {
		c.Barrier()
		start := time.Now()
		call()
		secs[k] = time.Since(start).Seconds()
		c.EpochDone() // recycles the payload pool, as the engine does per epoch
	}
	cl.perRank[c.Rank()] = secs
}

// median of the per-call maxima over ranks.
func (cl *collective) median() float64 {
	calls := make([]float64, len(cl.perRank[0]))
	for k := range calls {
		for r := range cl.perRank {
			calls[k] = max(calls[k], cl.perRank[r][k])
		}
	}
	return median(calls)
}

// commProbes times the collectives the workload's epoch is made of, on the
// workload's own fabric, at the workload's payload sizes.
func (pr *prober) commProbes(w workload, op *operands, widths []int) {
	pr.pass.OpsAttempted++
	id := pr.rec.begin("comm.probes", pr.root)
	defer pr.rec.end(id)

	block := make([]float64, op.b.Rows*op.split(widths[0])) // the largest dense block a rank broadcasts
	gradWords := 0
	for l := 1; l < len(widths); l++ {
		gradWords = max(gradWords, widths[l-1]*widths[l])
	}
	var bcast, ibcast, allreduce, indexed collective
	var spin float64
	pings := make([]float64, pingReps)

	setup, err := onFabric(w.tcp(), func(c *comm.Comm) {
		world, me := c.World(), c.Rank()
		in := comm.Payload{}
		if me == 0 {
			in = comm.Payload{Floats: block}
		}
		span := func(name string, fn func()) {
			if me != 0 {
				fn()
				return
			}
			sid := pr.rec.begin(name, id)
			fn()
			pr.rec.end(sid)
		}

		span("comm.bcast_s", func() {
			bcast.time(c, commReps, func() { world.Broadcast(0, in, comm.CatDenseComm) })
		})
		// Every rank spins for the same time: the mean of the ranks' own
		// medians of the blocking broadcast.
		mine := world.AllReduce([]float64{median(bcast.perRank[me])}, comm.CatMisc)[0] / World
		if me == 0 {
			spin = mine
		}
		span("comm.ibcast", func() {
			ibcast.time(c, commReps, func() {
				req := world.IBroadcast(0, in, comm.CatDenseComm)
				for start := time.Now(); time.Since(start).Seconds() < mine; {
				}
				req.Wait()
			})
		})
		span("comm.rtt_s", func() {
			word := comm.Payload{Floats: []float64{1}}
			for k := range pings {
				switch me {
				case 0:
					start := time.Now()
					c.Send(1, word, comm.CatMisc)
					c.Recv(1)
					pings[k] = time.Since(start).Seconds()
				case 1:
					c.Recv(0)
					c.Send(0, word, comm.CatMisc)
				}
			}
			c.EpochDone()
		})
		span("comm.allreduce_s", func() {
			grad := make([]float64, gradWords)
			allreduce.time(c, commReps, func() { world.AllReduce(grad, comm.CatDenseComm) })
		})
		if op.needs != nil {
			parts, from := make([]comm.Payload, World), make([]bool, World)
			for j := 0; j < World; j++ {
				if j != me {
					parts[j] = comm.Payload{Floats: make([]float64, len(op.needs[j][me])*widths[0])}
					from[j] = len(op.needs[me][j]) > 0
				}
			}
			span("comm.exchange_indexed_s", func() {
				indexed.time(c, commReps, func() { world.ExchangeIndexed(parts, from, comm.CatDenseComm) })
			})
		}
	})
	if err != nil {
		pr.pass.fail("comm probes: %v", err)
		return
	}
	pr.layers["comm.mesh_setup_s"] = setup
	pr.layers["comm.bcast_s"] = bcast.median()
	if bcast.median() <= 0 {
		pr.pass.fail("comm probes: the broadcast took no measurable time")
		return
	}
	pr.layers["comm.words_per_s"] = float64(len(block)) / bcast.median()
	// Fully hidden, the async broadcast costs only the spin; not hidden at
	// all, the spin plus a blocking broadcast. Below 0 the async path is
	// slower than doing the two one after the other.
	pr.layers["comm.ibcast_hidden_frac"] = 1 - (ibcast.median()-spin)/bcast.median()
	pr.layers["comm.rtt_s"] = median(pings)
	pr.layers["comm.allreduce_s"] = allreduce.median()
	if op.needs != nil {
		pr.layers["comm.exchange_indexed_s"] = indexed.median()
	}
}

// checkpointProbes saves and reloads a snapshot of the workload's weights
// and Adam state. Checkpointing is off in every workload; these are the
// baseline for a later checkpointed one.
func (pr *prober) checkpointProbes(widths []int, seed int64, scratch string) {
	dir, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		pr.pass.OpsAttempted++
		pr.pass.fail("checkpoint probes: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := nn.Config{Widths: widths, LR: 0.01, Optimizer: "adam", Seed: seed}.WithDefaults()
	weights, opt := nn.InitWeights(cfg), cfg.NewOptimizer()
	grads := make([]*dense.Matrix, len(weights))
	for l := range grads {
		grads[l] = pr.random(weights[l].Rows, weights[l].Cols)
	}
	opt.Step(weights, grads)
	step, state := opt.Snapshot()
	snap := &checkpoint.Snapshot{
		Epoch: 1, Seed: cfg.Seed, Weights: weights, OptName: opt.Name(), OptStep: step, OptState: state,
		Losses: []float64{1}, World: World,
	}
	pr.probe("checkpoint.save_s", kernelReps, func() {
		if _, err := checkpoint.Save(dir, snap); err != nil {
			panic(err)
		}
	})
	pr.probe("checkpoint.load_s", kernelReps, func() {
		path, err := checkpoint.Latest(dir)
		if err == nil {
			_, err = checkpoint.Load(path)
		}
		if err != nil {
			panic(err)
		}
		if info, err := os.Stat(path); err == nil {
			pr.layers["checkpoint.bytes"] = float64(info.Size())
		}
	})
}

// arrivals collects the instants the ranks reach each epoch boundary, from
// a TrainOptions.Drain hook that never asks to drain. The hook is the only
// public per-epoch callback; the OR-reduce behind it keeps any rank from
// reaching boundary k+1 before every rank has reached k, so the instants
// arrive grouped by epoch without knowing which rank called.
type arrivals struct {
	mu sync.Mutex
	at []time.Time
}

func (a *arrivals) hook() bool {
	now := time.Now()
	a.mu.Lock()
	a.at = append(a.at, now)
	a.mu.Unlock()
	return false
}

// epochs groups the arrivals into boundaries of ranks instants each and
// records one span per (arrival order, epoch) under parent. It returns the
// time from start to the first boundary and each boundary's max − min.
func (a *arrivals) epochs(rec *recorder, parent, ranks int, start time.Time) (first float64, skews []float64) {
	begin := start
	for k := 0; (k+1)*ranks <= len(a.at); k++ {
		group := a.at[k*ranks : (k+1)*ranks]
		last := group[0]
		for lane, t := range group {
			rec.add(fmt.Sprintf("epoch %d", k+1), parent, 1+lane, begin, t)
			if t.After(last) {
				last = t
			}
		}
		if k == 0 {
			first = last.Sub(start).Seconds()
		}
		skews = append(skews, last.Sub(group[0]).Seconds())
		begin = last
	}
	return first, skews
}

// tracedTrain is Train(opts) under the Drain hook, inside a root "train"
// span, with the heap counters read either side.
type tracedTrain struct {
	*timedTrain
	first   float64
	skews   []float64
	mallocs float64
	bytes   float64
}

func (pr *prober) tracedTrain(w workload, ds *graph.Dataset, o cagnet.TrainOptions) *tracedTrain {
	var arr arrivals
	o.Drain = arr.hook
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := pr.rec.begin(fmt.Sprintf("train %d epochs", o.Epochs), pr.root)
	start := time.Now()
	t := pr.pass.train(ds, o)
	pr.rec.end(id)
	runtime.ReadMemStats(&after)
	if t == nil {
		return nil
	}
	ranks := 1
	if w.distributed() {
		ranks = World
	}
	tt := &tracedTrain{
		timedTrain: t,
		mallocs:    float64(after.Mallocs - before.Mallocs),
		bytes:      float64(after.TotalAlloc - before.TotalAlloc),
	}
	tt.first, tt.skews = arr.epochs(pr.rec, id, ranks, start)
	return tt
}

// tracedPass is the -trace pass: measure's cold and warm Train calls, each
// warm repetition followed by the same two calls under the Drain hook and
// with spans, then the per-layer probes. End-to-end metrics never come
// from here; the untraced repetitions are this pass's own yardstick.
func tracedPass(pl plan, w workload) (*passResult, *recorder) {
	seed, epochs := pl.seed, pl.epochs
	p := &passResult{Workload: w.name, Layers: make(map[string]float64), host: newHostSweep(pl.quick)}
	rec := newRecorder(w.name)
	pr := &prober{pass: p, rec: rec, layers: p.Layers, rng: rand.New(rand.NewSource(seed))}
	pr.root = rec.begin("pass "+w.name, 0)
	defer rec.end(pr.root)

	var ds *graph.Dataset
	p.SynthS = pr.probe("graph.build_s", 1, func() { ds = w.build(seed, pl.quick) })
	p.Vertices, p.NNZ = ds.Graph.NumVertices, ds.Graph.Adjacency().NNZ()
	p.Layers["graph.vertices"], p.Layers["graph.nnz"] = float64(p.Vertices), float64(p.NNZ)
	if cold := pr.tracedTrain(w, ds, w.trainOpts(seed, 1)); cold != nil {
		p.ColdS = cold.wall
	}

	// Untraced and traced repetitions alternate, and the tracing is priced
	// by the ratio within each alternation: the two sides of a ratio are
	// seconds apart, so the host's slower drift cancels.
	var overheads, firsts, skews, allocs, allocBytes []float64
	var last *pair
	repeat(pl.minReps(true), pl.budget(), func() bool {
		plain := p.warmPair(w, ds, seed, epochs, nil)
		one := pr.tracedTrain(w, ds, w.trainOpts(seed, 1))
		full := pr.tracedTrain(w, ds, w.trainOpts(seed, epochs))
		if plain == nil || one == nil || full == nil {
			return false
		}
		p.record(plain)
		if !bitIdentical(full.report.Losses, p.Losses) {
			p.fail("repetition %d: the traced Train's losses differ from the untraced one's", len(p.EpochS))
		}
		last = plain
		hooked := pair{one: one.timedTrain, full: full.timedTrain, epochs: epochs}
		if plain.epochS() > 0 {
			overheads = append(overheads, hooked.epochS()/plain.epochS()-1)
		}
		firsts = append(firsts, full.first)
		skews = append(skews, median(full.skews))
		allocs = append(allocs, (full.mallocs-one.mallocs)/float64(epochs-1))
		allocBytes = append(allocBytes, (full.bytes-one.bytes)/float64(epochs-1))
		return true
	})
	epochS := median(p.EpochS)
	p.Layers["core.first_epoch_s"] = median(firsts)
	p.Layers["core.epoch_skew_s"] = median(skews)
	p.Layers["core.allocs_per_epoch"] = median(allocs)
	p.Layers["core.alloc_bytes_per_epoch"] = median(allocBytes)
	p.Layers["trace.overhead_frac"] = median(overheads)
	if last != nil {
		for cat, v := range p.WordsByCategory {
			p.Layers["comm.words_"+cat] = v
		}
		p.Layers["comm.collectives_per_epoch"] =
			float64(last.full.report.WireSamples-last.one.report.WireSamples) / float64(epochs-1)
		p.Layers["comm.fitted_alpha_s"] = last.full.report.FittedAlpha
		p.Layers["comm.fitted_beta_s"] = last.full.report.FittedBeta
	}

	// The same dataset through the serial trainer and through the
	// workload's trainer on the in-process fabric attribute epoch_s to the
	// wire, to partitioned arithmetic, and to the arithmetic itself. The
	// in-process run carries the laptop machine profile, so its modeled
	// seconds are the α–β prediction for a box like this one.
	p.Layers["core.epoch_serial_s"], p.Layers["core.epoch_inproc_s"] = epochS, epochS
	if w.distributed() {
		serial := p.warmPair(workload{opts: cagnet.TrainOptions{Algorithm: "serial"}}, ds, seed, epochs, nil)
		inproc := p.warmPair(w, ds, seed, epochs, func(o *cagnet.TrainOptions) {
			o.Transport, o.Machine = "", costmodel.Laptop.Name
		})
		if serial != nil && inproc != nil && epochS > 0 {
			inprocS := epochS // a workload already on the in-process fabric has no wire to take away
			if w.tcp() {
				inprocS = inproc.epochS()
			}
			p.Layers["core.epoch_serial_s"] = serial.epochS()
			p.Layers["core.epoch_inproc_s"] = inprocS
			p.Layers["core.wire_share"] = 1 - inprocS/epochS
			p.Layers["core.dist_overhead_s"] = inprocS - serial.epochS()
			modeled := (inproc.full.report.ModeledSeconds - inproc.one.report.ModeledSeconds) / float64(epochs-1)
			if modeled > 0 {
				p.Layers["costmodel.modeled_epoch_s"] = modeled
				p.Layers["costmodel.measured_over_modeled"] = epochS / modeled
			}
		}
	}

	op := pr.setupProbes(w, ds, seed)
	pr.kernelProbes(op, ds)
	pr.dispatchProbe()
	if w.distributed() {
		pr.commProbes(w, op, ds.LayerWidths())
	}
	pr.checkpointProbes(ds.LayerWidths(), seed, pl.outDir)
	if !w.distributed() {
		self := p.Layers["core.epoch_serial_s"]
		for _, name := range epochKernels {
			self -= p.Layers[name]
		}
		p.Layers["core.engine_self_s"] = self
	}
	p.finish()
	p.Layers["host.factor"] = hostFactor(p)
	return p, rec
}
