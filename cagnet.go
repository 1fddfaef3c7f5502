// Package cagnet is a Go reproduction of "Reducing Communication in Graph
// Neural Network Training" (Tripathy, Yelick, Buluç — SC 2020), known as
// CAGNET.
//
// The library trains graph convolutional networks with full-batch gradient
// descent under four distributed decompositions — 1D, 1.5D, 2D (SUMMA), and
// 3D (Split-3D-SpMM) — over a simulated cluster that counts every word of
// communication and charges it to the paper's α–β cost model. All four
// trainers produce outputs identical to the serial reference up to
// floating-point accumulation order.
//
// # Quick start
//
//	ds := cagnet.Dataset("reddit-sim")         // synthetic Reddit analog
//	report, err := cagnet.Train(ds, cagnet.TrainOptions{
//	    Algorithm: "2d",
//	    Ranks:     16,
//	    Epochs:    10,
//	})
//	fmt.Println(report.Losses, report.ModeledSeconds)
//
// The package examples are runnable programs with checked output;
// cmd/cagnet-train trains from the command line, in one process or one per
// rank (TrainRank), and cmd/cagnet-bench regenerates every table and
// figure of the paper.
package cagnet

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
)

// Algorithms lists the supported training algorithms in the order the
// paper presents them.
var Algorithms = []string{"serial", "1d", "1.5d", "2d", "3d"}

// Optimizers lists the selectable weight-update rules. All of them keep
// their state replicated across ranks, so they work identically under
// every decomposition with zero extra communication.
var Optimizers = nn.Optimizers

// Transports lists the selectable rank fabrics: "inproc" (default; the
// ranks exchange pooled payloads through channels) and "tcp" (they exchange
// length-prefixed frames over real loopback sockets, with wall-clock timing
// and a wire-fitted α/β). A cluster is the ranks this process hosts — all
// of them, under either name — and the transport is only what they talk
// over: one launcher starts them, the decomposition is built once, a rank
// that fails aborts the others and Train returns its root cause, and both
// fabrics run the identical collectives to bit-identical results.
var Transports = []string{"inproc", "tcp"}

// Dataset builds a named synthetic dataset analog ("reddit-sim",
// "amazon-sim", "protein-sim"). It panics on unknown names; use
// DatasetByName for error handling.
func Dataset(name string) *graph.Dataset {
	ds, err := DatasetByName(name)
	if err != nil {
		panic(err)
	}
	return ds
}

// DatasetByName builds a named synthetic dataset analog.
func DatasetByName(name string) (*graph.Dataset, error) {
	spec, err := graph.AnalogByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build(), nil
}

// RandomDataset synthesizes a dataset over an R-MAT graph with 2^scale
// vertices, edgeFactor·2^scale directed edges (then symmetrized), the given
// feature/hidden/label widths, and a deterministic seed.
func RandomDataset(scale, edgeFactor, features, hidden, labels int, seed int64) *graph.Dataset {
	spec := graph.AnalogSpec{
		Name: fmt.Sprintf("rmat-%d-%d", scale, edgeFactor), Scale: scale, EdgeFactor: edgeFactor,
		Features: features, Hidden: hidden, Labels: labels, Seed: seed,
	}
	return spec.Build()
}

// TrainOptions configures a training run. Validate says whether Train
// accepts a set before any dataset exists. Kernel threading is not among
// them: it is the process's worker count (CAGNET_WORKERS, default
// runtime.NumCPU), and every count trains the same bits.
type TrainOptions struct {
	// Algorithm selects the decomposition: "serial", "1d", "1.5d", "2d",
	// or "3d".
	Algorithm string
	// Ranks is the simulated process count (ignored for "serial"). 2D
	// needs a perfect square, 3D a perfect cube, 1.5D a multiple of its
	// replication factor.
	Ranks int
	// Epochs of full-batch gradient descent. Default 10.
	Epochs int
	// LR is the learning rate. Default 0.01.
	LR float64
	// Optimizer selects the weight-update rule: "sgd" (default),
	// "momentum", or "adam". Optimizer state is replicated on every rank,
	// so the choice adds no communication (§III-D).
	Optimizer string
	// ReplicationFactor is the 1.5D replication factor c (algorithm
	// "1.5d" only). 0 picks the default (2, or 1 when Ranks is odd);
	// otherwise it must divide Ranks.
	ReplicationFactor int
	// Seed fixes the weight initialization. Default 1.
	Seed int64
	// Machine names the cost-model profile: "summit-v100", "summit-sim",
	// or "laptop-cpu". Default "summit-v100".
	Machine string
	// TrainMask restricts the loss to marked vertices (semi-supervised
	// training, like the paper's Reddit split). Nil trains on all vertices.
	TrainMask []bool
	// ValMask marks held-out vertices. When set, per-epoch train and
	// validation accuracy are tracked in the report, and validation
	// vertices never contribute to the loss: if TrainMask is nil it is
	// derived as ValMask's complement, while an explicit TrainMask is used
	// as given.
	ValMask []bool
	// Partitioner selects the vertex-to-block assignment for the 1D and
	// 1.5D row decompositions: "block" (default: contiguous index
	// blocks), "random" (balanced random assignment — the paper's random
	// vertex partitioning), or "ldg" (Stanton–Kliot linear deterministic
	// greedy, the Metis stand-in of §IV-A-8). Non-block choices relabel
	// vertices so each rank's block is contiguous; the output matrix is
	// mapped back to the original vertex order. A smart partition shrinks
	// the halo each rank must fetch — visible in the communication ledger
	// when HaloExchange is on. Rejected for other algorithms.
	Partitioner string
	// HaloExchange replaces the 1D/1.5D dense-block broadcasts with
	// point-to-point exchanges of only the rows each rank's local
	// adjacency block references (§IV-A-1): per-product dense-comm words
	// drop from ≈ n·f to edgecut·f, with bit-identical training results.
	// Rejected for other algorithms.
	HaloExchange bool
	// Overlap reports the overlapped reading of the modeled timeline
	// instead of the bulk-synchronous one. Every distributed trainer runs
	// one schedule, the way CAGNET's Summit implementation hides its dense
	// broadcasts behind local SpMM via asynchronous NCCL collectives
	// (§V–VI): 2D/3D SUMMA loops double-buffer the next stage's panel
	// broadcasts, 1D/1.5D trainers prefetch the next block (or, with
	// HaloExchange, multiply interior rows while the indexed fetch is in
	// flight). Overlap changes no output, word count or per-category
	// charge: it makes ModeledSeconds the critical path max(compute,
	// communication) per pipeline stage instead of the charges' sum, and
	// fills in HiddenCommSeconds. Rejected for "serial", which has
	// nothing to overlap.
	Overlap bool
	// Transport selects the fabric the ranks communicate over: "" or
	// "inproc" (default) runs them as goroutines on the simulated channel
	// fabric; "tcp" runs each rank's collectives over real loopback TCP
	// sockets — same algorithms, bit-identical weights — and additionally
	// reports wall-clock time plus an α/β least-squares fit of the
	// measured wire behavior (TrainReport.MeasuredSeconds, FittedAlpha,
	// FittedBeta). Distributed algorithms only; "serial" has no fabric and
	// rejects it. For one process per rank use TrainRank.
	Transport string
	// Checkpoint enables snapshots of the training state (weights,
	// optimizer buffers, epoch counter, metric history) plus
	// resume-from-latest at startup: when Checkpoint.Dir holds a snapshot,
	// training continues from it and the finished run is bit-identical to
	// an uninterrupted one. Snapshots are written atomically by rank 0.
	//
	// The snapshot state is world-size-independent (replicated weights and
	// optimizer buffers), so a resume may use a different Ranks — or even a
	// different Algorithm — than the run that wrote it: the problem is
	// simply repartitioned for the new world. Such an elastic resume is
	// tolerance-equivalent, not bit-identical, to an uninterrupted run
	// (accumulation orders change with the partition).
	Checkpoint CheckpointOptions
	// Drain, when non-nil, is polled at every epoch boundary (with the
	// votes OR-reduced across ranks): once it returns true anywhere, the
	// current epoch completes, a final checkpoint is written (when
	// checkpointing is on), and Train returns early with
	// TrainReport.DrainedEpoch set. Install a hook reading an atomic flag
	// flipped by a SIGTERM handler to make maintenance never cost an
	// epoch.
	Drain func() bool
}

// CheckpointOptions configures checkpoint/restart; see
// TrainOptions.Checkpoint.
type CheckpointOptions struct {
	// Dir is the snapshot directory; empty disables checkpointing.
	Dir string
	// Every is the epoch interval between snapshots; <= 0 with Dir set
	// writes only the final one.
	Every int
	// Keep prunes all but the newest Keep snapshot files after each
	// successful save; <= 0 keeps everything.
	Keep int
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Algorithm == "" {
		o.Algorithm = "2d"
	}
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	if o.Epochs == 0 {
		o.Epochs = 10
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Machine == "" {
		o.Machine = costmodel.Summit.Name
	}
	return o
}

// TrainReport extends the training result with the simulated cluster's cost
// accounting.
type TrainReport struct {
	// Losses holds the full-batch loss per epoch.
	Losses []float64
	// Accuracy is the final training accuracy.
	Accuracy float64
	// TrainAccuracy and ValAccuracy hold per-epoch accuracies over
	// TrainOptions.TrainMask and TrainOptions.ValMask; populated only when
	// ValMask is set.
	TrainAccuracy []float64
	ValAccuracy   []float64
	// ResumedEpoch is the epoch count restored from a checkpoint at
	// startup (0 for a fresh start); DrainedEpoch is the epoch after
	// which a TrainOptions.Drain vote stopped the run early (0 when it
	// trained to Epochs).
	ResumedEpoch int
	DrainedEpoch int
	// OutputRows and OutputCols describe the final embedding matrix.
	OutputRows, OutputCols int
	// ModeledSeconds is the modeled run time across all epochs (zero for
	// "serial"), max across ranks: each rank's charges summed
	// (bulk-synchronous) without Overlap, its timeline clock — the
	// critical path, shorter by the hidden communication — with it. Both
	// are read off the same run.
	ModeledSeconds float64
	// HiddenCommSeconds is the communication time hidden behind compute
	// (max across ranks); filled in only with Overlap.
	HiddenCommSeconds float64
	// TimeByCategory breaks ModeledSeconds into Figure 3 categories:
	// "misc", "trpose", "dcomm", "scomm", "spmm" (nil for "serial").
	TimeByCategory map[string]float64
	// WordsByCategory is the per-rank maximum of modeled words moved per
	// category over the whole run (nil for "serial"). Not every category
	// grows with Epochs: "scomm" (2D/3D's sparse row panels) and "trpose"
	// (the mesh's transpose exchange, which runs only when A ≠ Aᵀ) are paid
	// once per run — A is static, so the mesh holds what the first SUMMA of
	// each direction delivers — as are
	// the input aggregation's share of "dcomm" and the final forward pass;
	// difference two runs of different length for a steady-state epoch.
	WordsByCategory map[string]int64
	// MeasuredSeconds is the wall-clock time of the whole training run
	// over the "tcp" transport (zero for "inproc"): real sockets, real
	// scheduling, every rank in this process — or, from TrainRank, the
	// slowest of the world's processes. Compare against
	// ModeledSeconds, which is the α–β prediction for the configured
	// machine profile.
	MeasuredSeconds float64
	// FittedAlpha and FittedBeta are the per-message and per-word costs
	// least-squares-fitted (t ≈ α·msgs + β·words, comm.WireSums.Fit) over
	// the "tcp" transport from the sums Σm², Σw², Σmw, Σmt and Σwt of every
	// rank's wire samples: per collective call, the messages m and words w
	// it moved and its wall seconds t. They describe the fabric the run
	// actually experienced — including synchronization skew — and stay
	// zero when the fit is degenerate (too few or collinear samples).
	FittedAlpha float64
	FittedBeta  float64
	// WireSamples is the sample count n behind those sums: the collective
	// calls that moved data, summed over every rank.
	WireSamples int
	// KernelISA names the instruction set the multiply kernels'
	// accumulation loops ran on in this process: "avx512" or "avx2" (the
	// amd64 assembly routines, the tiles at 512 or 256 bits) or "go" (the
	// portable loops: another GOARCH, a CPU without AVX2, a build with
	// -tags purego). All are bit-identical, so it explains a wall-clock
	// number and nothing else; it is detected, not selectable.
	KernelISA string

	result *core.Result
}

// Result exposes the underlying training result (weights, output matrix).
func (r *TrainReport) Result() *core.Result { return r.result }

// Digest is the run's core.Result.Digest: equal digests mean the same
// losses, weights and output, bit for bit.
func (r *TrainReport) Digest() string { return r.result.Digest() }

// Validate returns the error Train would give the options before it looks
// at a dataset, or nil. It needs no dataset and does no work: it applies
// every rule about the options alone — the algorithm, rank count,
// replication factor, partitioner, halo exchange, optimizer,
// learning rate, epoch count, machine, checkpoint knobs, overlap and
// transport — and names the option it rejects. Train runs the same checks
// first, so the two cannot disagree. What only the data decides (the masks,
// the vertex count against the rank layout) Train checks once it has the
// dataset.
func (o TrainOptions) Validate() error {
	_, _, err := o.withDefaults().trainer()
	return err
}

// trainer builds the trainer the options name and applies to it every
// option that needs no dataset. Each rule is written once, where the option
// is applied: the algorithm, ranks, replication and row options in core,
// the training settings in nn, the machine in costmodel, the snapshot knobs
// in checkpoint; overlap and transport are this package's.
func (o TrainOptions) trainer() (core.Trainer, costmodel.Machine, error) {
	mach, err := costmodel.ProfileByName(o.Machine)
	if err != nil {
		return nil, mach, err
	}
	trainer, err := core.NewTrainerReplicated(o.Algorithm, o.Ranks, o.ReplicationFactor, mach)
	if err != nil {
		return nil, mach, err
	}
	if _, err := core.ConfigureRowDecomposition(trainer, nil, nil, o.Partitioner, o.HaloExchange, o.Seed); err != nil {
		return nil, mach, err
	}
	if o.Overlap && o.Algorithm == "serial" {
		return nil, mach, fmt.Errorf("cagnet: overlap applies to the distributed algorithms, not %q", o.Algorithm)
	}
	switch o.Transport {
	case "", "inproc":
	case "tcp":
		if o.Algorithm == "serial" {
			return nil, mach, fmt.Errorf("cagnet: the tcp transport applies to the distributed algorithms, not %q", o.Algorithm)
		}
	default:
		return nil, mach, fmt.Errorf("cagnet: unknown transport %q (want inproc or tcp)", o.Transport)
	}
	if err := o.network(nil).Validate(); err != nil {
		return nil, mach, err
	}
	if err := checkpoint.Options(o.Checkpoint).Validate(); err != nil {
		return nil, mach, err
	}
	return trainer, mach, nil
}

// network is the options' training settings over the given layer widths.
func (o TrainOptions) network(widths []int) nn.Config {
	return nn.Config{Widths: widths, LR: o.LR, Optimizer: o.Optimizer, Epochs: o.Epochs, Seed: o.Seed}
}

// Train runs full-batch GCN training on ds with the paper's 3-layer
// architecture (input → hidden → labels), every rank in this process. Its
// first step is Validate's.
func Train(ds *graph.Dataset, opts TrainOptions) (*TrainReport, error) {
	opts = opts.withDefaults()
	trainer, mach, err := opts.trainer()
	if err != nil {
		return nil, err
	}
	problem, order, err := opts.problem(ds, trainer)
	if err != nil {
		return nil, err
	}
	// The transport chooses which cluster hosts the ranks, not how they are
	// trained: the trainer builds its own channel fabric unless handed a
	// world of loopback-socket endpoints.
	if opts.Transport != "tcp" {
		return train(opts, trainer, problem, order, nil)
	}
	comms, err := comm.LocalTCPComms(opts.Ranks, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta})
	if err != nil {
		return nil, err
	}
	cl := comm.ClusterOf(comms...)
	defer cl.Close()
	return train(opts, trainer, problem, order, cl)
}

// TrainRank runs this process's one rank of a multi-process world over tr,
// a dialled endpoint (comm.DialTCPOpts, possibly wrapped in a
// comm.FaultTransport): every process of the world calls it with the same
// dataset and options, whose Transport must be "tcp" and Ranks the world
// size tr.Size(). It is Train's body over a one-rank cluster, so every
// option Train takes — halo exchange, partitioners, validation masks,
// checkpoints, drain — trains the same bits across processes as in one.
// Rank 0's report is the world's: each rank's costs and wire samples reach
// it in one gather after training. Another rank's report carries only its
// own costs, no losses or output. The caller closes tr.
func TrainRank(ds *graph.Dataset, opts TrainOptions, tr comm.Transport) (*TrainReport, error) {
	if opts.Transport != "tcp" || opts.Ranks != tr.Size() {
		return nil, fmt.Errorf("cagnet: a rank of a %d-rank world trains with Ranks %d and Transport \"tcp\", not Ranks %d and %q",
			tr.Size(), tr.Size(), opts.Ranks, opts.Transport)
	}
	opts = opts.withDefaults()
	trainer, mach, err := opts.trainer()
	if err != nil {
		return nil, err
	}
	problem, order, err := opts.problem(ds, trainer)
	if err != nil {
		return nil, err
	}
	c := comm.NewTransportComm(tr, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta})
	return train(opts, trainer, problem, order, comm.ClusterOf(c))
}

// problem is the training problem the options make of ds, with the row
// decomposition's partition applied to it and to the trainer; order maps
// the output back to ds's vertex order (nil: unchanged).
func (o TrainOptions) problem(ds *graph.Dataset, trainer core.Trainer) (problem core.Problem, order []int, err error) {
	problem = core.Problem{
		A:          ds.Graph.NormalizedAdjacency(),
		Features:   ds.Features,
		Labels:     ds.Labels,
		TrainMask:  o.TrainMask,
		ValMask:    o.ValMask,
		Checkpoint: checkpoint.Options(o.Checkpoint),
		Drain:      o.Drain,
		Config:     o.network(ds.LayerWidths()),
	}
	order, err = core.ConfigureRowDecomposition(trainer, &problem, ds.Graph, o.Partitioner, o.HaloExchange, o.Seed)
	return problem, order, err
}

// train is Train's and TrainRank's one body: cl is the cluster that hosts
// this process's ranks (nil: the trainer's own channel fabric of all of
// them).
func train(opts TrainOptions, trainer core.Trainer, problem core.Problem, order []int, cl *comm.Cluster) (*TrainReport, error) {
	if cl != nil {
		if err := core.SetCluster(trainer, cl); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res, err := trainer.Train(problem)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	report := &TrainReport{
		Losses:        res.Losses,
		Accuracy:      res.Accuracy,
		TrainAccuracy: res.TrainAccuracy,
		ValAccuracy:   res.ValAccuracy,
		ResumedEpoch:  res.ResumedEpoch,
		DrainedEpoch:  res.DrainedEpoch,
		KernelISA:     dense.KernelISA(),
		result:        res,
	}
	// The output lives where rank 0 is hosted.
	if res.Output != nil {
		if order != nil {
			res.Output = core.RestoreRows(res.Output, order)
		}
		report.OutputRows, report.OutputCols = res.Output.Rows, res.Output.Cols
	}
	dt, ok := trainer.(core.DistTrainer)
	if !ok {
		return report, nil
	}
	cl = dt.Cluster()
	r := costs{wall: wall, Reading: cl.Max((*comm.Ledger).Reading), wire: cl.SumWire()}
	if cl.Hosted() < cl.Size() {
		// The rest of the world is in other processes: rank 0 takes the
		// maximum of every process's reading and their wire sums added.
		if r, err = r.gather(cl); err != nil {
			return nil, err
		}
	}
	report.ModeledSeconds = r.Bulk
	if opts.Overlap {
		report.ModeledSeconds, report.HiddenCommSeconds = r.Elapsed, r.Hidden
	}
	report.TimeByCategory, report.WordsByCategory = map[string]float64{}, map[string]int64{}
	for cat := range comm.NumCategories {
		if r.Time[cat] > 0 {
			report.TimeByCategory[cat.String()] = r.Time[cat]
		}
		if r.Words[cat] > 0 {
			report.WordsByCategory[cat.String()] = r.Words[cat]
		}
	}
	if opts.Transport == "tcp" {
		report.MeasuredSeconds = r.wall
		report.WireSamples = int(r.wire.Samples)
		// A degenerate fit (too few or collinear samples) leaves α/β zero;
		// the measured wall time still stands on its own.
		if fit, err := r.wire.Fit(); err == nil {
			report.FittedAlpha, report.FittedBeta = fit.Alpha, fit.Beta
		}
	}
	return report, nil
}

// costs is what a process knows of a run's cost once its ranks return:
// its wall time, the maximum over the ranks it hosts of their ledgers'
// readings, and their wire sums added together.
type costs struct {
	wall float64
	comm.Reading
	wire comm.WireSums
}

// gather sends this process's reading to rank 0 in one Gather and
// returns, where rank 0 is hosted, the world's: the maximum of each reading
// and the wire sums added together. Elsewhere it returns r unchanged. A
// reading travels as [wall, bulk, elapsed, hidden, peak words, (seconds,
// words, msgs) per category, the eight fields of comm.WireSums].
func (r costs) gather(cl *comm.Cluster) (costs, error) {
	mine := []float64{r.wall, r.Bulk, r.Elapsed, r.Hidden, float64(r.PeakMemWords)}
	for cat := range comm.NumCategories {
		mine = append(mine, r.Time[cat], float64(r.Words[cat]), float64(r.Msgs[cat]))
	}
	mine = append(mine, float64(r.wire.Samples), r.wire.Msgs, r.wire.Words, r.wire.MM, r.wire.WW, r.wire.MW, r.wire.MT, r.wire.WT)
	err := cl.Run(func(c *comm.Comm) error {
		all := c.World().Gather(0, comm.Payload{Floats: mine}, comm.CatMisc)
		if all == nil {
			return nil
		}
		r = costs{}
		for _, p := range all {
			s := p.Floats
			theirs := comm.Reading{Bulk: s[1], Elapsed: s[2], Hidden: s[3], PeakMemWords: int64(s[4])}
			r.wall = max(r.wall, s[0])
			s = s[5:]
			for cat := range comm.NumCategories {
				theirs.Time[cat], theirs.Words[cat], theirs.Msgs[cat] = s[0], int64(s[1]), int64(s[2])
				s = s[3:]
			}
			r.Reading = r.Max(theirs)
			r.wire.Add(comm.WireSums{Samples: int64(s[0]), Msgs: s[1], Words: s[2], MM: s[3], WW: s[4], MW: s[5], MT: s[6], WT: s[7]})
		}
		return nil
	})
	return r, err
}

// Partitioners lists the selectable 1D/1.5D vertex partitioners.
var Partitioners = partition.Partitioners

// PredictWords evaluates the paper's closed-form §IV per-epoch word bounds
// for a dataset at rank count p, keyed by algorithm name. It requires no
// training run — the formulas depend only on n, nnz, f, and L. They are the
// uncached, fixed-order bounds: every layer pays a forward and a backward
// aggregation, at one average width f. The engine aggregates the input
// layer (and, in 2D/3D, its row panels) once per run and every other layer
// at min(f^{l-1}, f^l), so a steady-state epoch moves less (see
// costmodel/analytic.go).
func PredictWords(ds *graph.Dataset, p int) map[string]float64 {
	w := costmodel.Workload{
		N:      ds.Graph.NumVertices,
		NNZ:    int64(ds.Graph.NNZ()),
		F:      (float64(ds.FeatureLen()) + float64(ds.Hidden) + float64(ds.NumLabels)) / 3,
		Layers: 3,
	}
	ec := costmodel.OneDRandomEdgecut(w.N, p)
	return map[string]float64{
		"1d":   costmodel.OneD(w, p, ec).Words,
		"1.5d": costmodel.OneFiveD(w, p, 2).Words,
		"2d":   costmodel.TwoD(w, p).Words,
		"3d":   costmodel.ThreeD(w, p).Words,
	}
}

// CommCategories lists the Figure 3 cost categories in display order.
func CommCategories() []string {
	out := make([]string, comm.NumCategories)
	for c := range comm.NumCategories {
		out[c] = c.String()
	}
	return out
}
