// Command cagnet-train trains a GCN on a dataset analog with any of the
// paper's algorithms and prints per-epoch losses plus the modeled cost
// breakdown — every rank in this process, or one process per rank over
// real TCP sockets.
//
// Usage:
//
//	cagnet-train [-dataset reddit-sim] [-algo 2d] [-ranks 16] [-epochs 10]
//	             [-lr 0.01] [-optimizer sgd] [-replication 0] [-seed 1]
//	             [-val 0] [-halo] [-partitioner block] [-overlap]
//	             [-machine summit-v100] [-transport inproc]
//	             [-workers 0] [-quick] [-checkpoint-dir DIR]
//	             [-checkpoint-every N] [-checkpoint-keep N]
//
// Flag combinations that would have no effect are rejected up front —
// before the dataset build — rather than silently ignored: the flags become
// a cagnet.TrainOptions whose Validate gives the library's verdict (-halo
// and -partitioner need the row decompositions 1d and 1.5d, -overlap and
// -transport tcp a distributed algorithm), after the few checks only the
// command line adds. -workers sets the kernel worker pool: 1 runs every
// kernel single-threaded, and every count trains the same bits.
//
// # One process per rank
//
// With -rank and -coordinator the process runs one rank of a -ranks world
// through cagnet.TrainRank: every process builds the same dataset from
// identical flags, dials the coordinator for rendezvous (rank 0 hosts it
// unless -host=false), and trains with its collectives crossing real
// sockets, to the in-process run's digest. Rank 0 prints the world's
// report, wall time and wire-fitted α/β included:
//
//	cagnet-train -rank 0 -ranks 4 -coordinator 127.0.0.1:9000 &
//	cagnet-train -rank 1 -ranks 4 -coordinator 127.0.0.1:9000 &
//	cagnet-train -rank 2 -ranks 4 -coordinator 127.0.0.1:9000 &
//	cagnet-train -rank 3 -ranks 4 -coordinator 127.0.0.1:9000
//
// -spawn forks the -ranks processes locally instead, passing each every
// training flag that was set:
//
//	cagnet-train -spawn -ranks 4 -algo 1d -halo -partitioner ldg -quick
//
// -rank, -ranks, -coordinator and -rendezvous-timeout fall back to the
// CAGNET_RANK, CAGNET_WORLD, CAGNET_COORDINATOR and
// CAGNET_RENDEZVOUS_TIMEOUT environment variables, so the binary drops into
// mpirun-style launchers that communicate placement through the
// environment.
//
// # Fault tolerance
//
// The fabric heartbeats every peer connection and enforces
// -progress-timeout on blocked collectives, so a dead or partitioned rank
// surfaces as a prompt error naming it instead of an indefinite hang; a
// failing rank broadcasts its root cause to the world before exiting. With
// -checkpoint-dir set, rank 0 writes atomic snapshots every
// -checkpoint-every epochs (plus one at the end) and a fresh start resumes
// from the latest snapshot bit-identically. -spawn then becomes a
// supervisor: when the world dies it restarts all ranks from the latest
// checkpoint with bounded exponential backoff, bumping the rendezvous
// -generation so stragglers from the dead world are ignored. -chaos injects
// deterministic faults on one rank (e.g. crash@epoch=3) to exercise exactly
// these paths:
//
//	cagnet-train -spawn -ranks 4 -quick -checkpoint-dir /tmp/ckpt \
//	    -checkpoint-every 1 -chaos crash@epoch=3
//
// When the restart budget at the current world size is exhausted (or the
// same rank keeps dying), the supervisor shrinks the world instead: the
// survivors are relaunched as a new generation with the largest world size
// P′ < P the algorithm supports (never below -min-world), resuming from the
// latest checkpoint. Snapshots are world-size-independent, so the shrunken
// world repartitions the problem and trains on, tolerance-equivalent (not
// bit-identical) to an uninterrupted run. Its ranks are launched with
// -ranks 0 -host=false and adopt the world size the generation's
// coordinator announces.
//
// SIGTERM to a rank (or to the supervisor, which forwards it) drains: the
// current epoch finishes, rank 0 writes a final checkpoint, the transport
// closes in order and the process exits 0. The drain decision is a
// per-epoch collective vote, so every rank stops after the same epoch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// config is the command line: the library's training options plus what
// only the command line adds.
type config struct {
	// The flags are the library's options; Validate has the verdict on
	// them.
	cagnet.TrainOptions
	dataset string
	quick   bool
	val     float64
	workers int

	// One rank of a multi-process world, or the supervisor of one.
	rank              int
	coordinator       string
	host              bool
	spawn             bool
	rendezvousTimeout time.Duration
	progressTimeout   time.Duration
	heartbeatInterval time.Duration
	chaos             string
	chaosRank         int
	maxRestarts       int
	minWorld          int
	generation        int
	// forward is every flag that was set apart from the supervisor's own
	// (supervisorFlags), as -name=value: what -spawn passes to each rank.
	forward []string
}

// supervisorFlags place a process in the world; -spawn sets them per rank
// and forwards every other flag that was set.
var supervisorFlags = map[string]bool{
	"spawn": true, "ranks": true, "rank": true, "coordinator": true, "host": true, "generation": true,
	"chaos": true, "chaos-rank": true, "max-restarts": true, "min-world": true,
}

// modeFlags act only in some runs: "world" ones in a world of processes
// (-spawn or -rank), "spawn" ones in its supervisor. Set anywhere else they
// would do nothing, so they are rejected.
var modeFlags = map[string]string{
	"host": "world", "generation": "world", "rendezvous-timeout": "world", "progress-timeout": "world",
	"heartbeat-interval": "world", "chaos": "world", "chaos-rank": "world",
	"max-restarts": "spawn", "min-world": "spawn",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-train: ")
	var cfg config
	flag.StringVar(&cfg.dataset, "dataset", "reddit-sim", "dataset analog (reddit-sim, amazon-sim, protein-sim)")
	flag.StringVar(&cfg.Algorithm, "algo", "2d", "algorithm: serial, 1d, 1.5d, 2d, 3d (every one also takes a directed graph)")
	flag.IntVar(&cfg.Ranks, "ranks", 16, "world size: the simulated ranks, or with -spawn/-rank the processes (or $CAGNET_WORLD; 0 with -host=false adopts the coordinator's)")
	flag.IntVar(&cfg.Epochs, "epochs", 10, "training epochs")
	flag.Float64Var(&cfg.LR, "lr", 0.01, "learning rate")
	flag.StringVar(&cfg.Optimizer, "optimizer", "sgd", "weight-update rule: sgd, momentum, adam")
	flag.IntVar(&cfg.ReplicationFactor, "replication", 0, "1.5d replication factor c (0 = default; must divide ranks)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "weight-initialization seed")
	flag.BoolVar(&cfg.HaloExchange, "halo", false, "1d/1.5d: fetch only the rows each rank's adjacency block touches instead of broadcasting dense blocks")
	flag.StringVar(&cfg.Partitioner, "partitioner", "", "1d/1.5d vertex partitioner: block (default), random, ldg")
	flag.BoolVar(&cfg.Overlap, "overlap", false, "report the overlapped modeled time (critical path) and the communication it hides instead of the bulk-synchronous sum")
	flag.Float64Var(&cfg.val, "val", 0, "fraction of vertices held out for validation tracking (0 disables)")
	flag.StringVar(&cfg.Transport, "transport", "", "in-process rank fabric: inproc (default; simulated channels) or tcp (real loopback sockets with wall-clock timing and a wire-fitted alpha/beta)")
	flag.StringVar(&cfg.Checkpoint.Dir, "checkpoint-dir", "", "directory for atomic training-state snapshots; resumes from the latest one when present (empty disables)")
	flag.IntVar(&cfg.Checkpoint.Every, "checkpoint-every", 0, "epochs between snapshots (0 = only the final one; needs -checkpoint-dir)")
	flag.IntVar(&cfg.Checkpoint.Keep, "checkpoint-keep", 0, "retain only the newest N snapshots after each write (0 = keep all; the latest is never pruned)")
	flag.StringVar(&cfg.Machine, "machine", "summit-v100", "cost-model machine profile")
	flag.IntVar(&cfg.workers, "workers", 0, "kernel worker count (1 = single-threaded; 0 = $CAGNET_WORKERS, else runtime.NumCPU shared by this host's ranks)")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink the dataset for a fast run")
	flag.BoolVar(&cfg.spawn, "spawn", false, "fork all -ranks ranks as local processes and supervise them (with -checkpoint-dir, a crashed world restarts from the latest checkpoint)")
	flag.IntVar(&cfg.rank, "rank", -1, "run this one rank of a multi-process world, in [0, ranks) (or $CAGNET_RANK)")
	flag.StringVar(&cfg.coordinator, "coordinator", "", "-rank: rendezvous coordinator host:port (or $CAGNET_COORDINATOR)")
	flag.BoolVar(&cfg.host, "host", true, "-rank: rank 0 hosts the coordinator at -coordinator (set -host=false when one already runs there)")
	flag.DurationVar(&cfg.rendezvousTimeout, "rendezvous-timeout", 0, "how long rendezvous and the mesh handshake may take (0 = 30s default; or $CAGNET_RENDEZVOUS_TIMEOUT)")
	flag.DurationVar(&cfg.progressTimeout, "progress-timeout", 0, "a blocked collective fails after this much silence from the awaited peer (0 = 30s default; negative disables)")
	flag.DurationVar(&cfg.heartbeatInterval, "heartbeat-interval", 0, "period between heartbeat frames to every peer (0 = 500ms default; negative disables)")
	flag.StringVar(&cfg.chaos, "chaos", "", "deterministic fault plan injected on the chaos rank, e.g. crash@epoch=3 or sever@op=40,delay@op=10:50ms")
	flag.IntVar(&cfg.chaosRank, "chaos-rank", 1, "rank the -chaos plan applies to")
	flag.IntVar(&cfg.maxRestarts, "max-restarts", 3, "-spawn: full-strength restarts from checkpoint at one world size before shrinking (or giving up at -min-world)")
	flag.IntVar(&cfg.minWorld, "min-world", 1, "-spawn: smallest world size elastic shrinking may fall back to (set to -ranks to disable shrinking)")
	flag.IntVar(&cfg.generation, "generation", 0, "rendezvous generation (set by the -spawn supervisor on restart)")
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) {
		set = append(set, f.Name)
		if !supervisorFlags[f.Name] {
			cfg.forward = append(cfg.forward, "-"+f.Name+"="+f.Value.String())
		}
	})
	applyEnvFallback(&cfg, set)
	err := cfg.checkModes(set)
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		// A rank has already released its transport (and the cluster's Run
		// broadcast the root cause to surviving peers) on every failure path.
		log.Fatal(err)
	}
}

// applyEnvFallback fills -rank, -coordinator, -rendezvous-timeout and, in a
// multi-process run, -ranks from the CAGNET_* environment where the flag
// was not set.
func applyEnvFallback(cfg *config, set []string) {
	if v, err := strconv.Atoi(os.Getenv("CAGNET_RANK")); err == nil && !slices.Contains(set, "rank") {
		cfg.rank = v
	}
	if !slices.Contains(set, "coordinator") {
		cfg.coordinator = os.Getenv("CAGNET_COORDINATOR")
	}
	if d, err := time.ParseDuration(os.Getenv("CAGNET_RENDEZVOUS_TIMEOUT")); err == nil && !slices.Contains(set, "rendezvous-timeout") {
		cfg.rendezvousTimeout = d
	}
	if v, err := strconv.Atoi(os.Getenv("CAGNET_WORLD")); err == nil && !slices.Contains(set, "ranks") && cfg.multiProcess() {
		cfg.Ranks = v
	}
}

// checkModes rejects the first of the set flags that does nothing in this
// run (modeFlags).
func (cfg config) checkModes(set []string) error {
	for _, name := range set {
		switch mode := modeFlags[name]; {
		case mode == "spawn" && !cfg.spawn:
			return fmt.Errorf("-%s applies to -spawn runs", name)
		case mode == "world" && !cfg.multiProcess():
			return fmt.Errorf("-%s applies to -spawn and -rank runs", name)
		}
	}
	return nil
}

// multiProcess reports whether the run is a world of processes: the
// supervisor of one, or one of its ranks.
func (cfg config) multiProcess() bool {
	return cfg.spawn || cfg.rank >= 0 || cfg.coordinator != ""
}

// tcpOptions assembles the fabric options a rank runs with.
func (cfg config) tcpOptions() comm.TCPOptions {
	return comm.TCPOptions{
		RendezvousTimeout: cfg.rendezvousTimeout,
		HeartbeatInterval: cfg.heartbeatInterval,
		ProgressTimeout:   cfg.progressTimeout,
		Generation:        cfg.generation,
	}
}

// options is the training run a rank of a p-process world takes part in:
// TrainOptions.Validate gives the verdict on it before any rank is forked,
// dialled or trained.
func (cfg config) options(p int) cagnet.TrainOptions {
	o := cfg.TrainOptions
	o.Ranks, o.Transport = p, "tcp"
	return o
}

func run(cfg config) error {
	// Every verdict comes before the (potentially expensive) dataset build
	// and before any rank is forked: first what only the command line
	// adds, then the library's.
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.spawn {
		if err := cfg.options(cfg.Ranks).Validate(); err != nil {
			return err
		}
		return supervise(cfg)
	}
	if cfg.multiProcess() {
		return runRank(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.workers > 0 {
		parallel.SetWorkers(cfg.workers)
	}
	ds, err := cfg.build(fmt.Sprintf("training: algo=%s ranks=%d", cfg.Algorithm, cfg.Ranks), true)
	if err != nil {
		return err
	}
	report, err := cagnet.Train(ds, cfg.TrainOptions)
	if err != nil {
		return err
	}
	return cfg.printReport(report, "all ranks on this host")
}

// runRank runs this process's one rank of the world. Only rank 0 prints:
// the other ranks' costs and wire samples reach its report.
func runRank(cfg config) error {
	// Graceful drain: SIGTERM flips a flag the engine polls at every epoch
	// boundary. The vote is OR-reduced across the world, so all ranks stop
	// after the same epoch regardless of which rank the signal reached.
	var draining atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		for range sigCh {
			if !draining.Swap(true) {
				log.Printf("rank %d: SIGTERM; draining after the current epoch", cfg.rank)
			}
		}
	}()
	cfg.Drain = draining.Load

	var tcpTr *comm.TCPTransport
	if cfg.Ranks == 0 {
		// Elastic membership: rendezvous first and adopt the coordinator's
		// announced world size; everything below sizes itself off it.
		var err error
		if tcpTr, err = comm.DialTCPOpts(cfg.coordinator, cfg.rank, 0, cfg.tcpOptions()); err != nil {
			return err
		}
		defer tcpTr.Close()
		cfg.Ranks = tcpTr.Size()
		log.Printf("rank %d: adopted world size %d from coordinator (generation %d)", cfg.rank, cfg.Ranks, cfg.generation)
	}
	// A fixed world is checked before it dials, a negotiated one as soon as
	// it knows its size.
	opts := cfg.options(cfg.Ranks)
	if err := opts.Validate(); err != nil {
		return err
	}
	if cfg.workers == 0 {
		cfg.workers = rankWorkers(os.Getenv("CAGNET_WORKERS"), runtime.NumCPU(), cfg.Ranks)
	}
	parallel.SetWorkers(cfg.workers)
	ds, err := cfg.build(fmt.Sprintf("world %d ranks over tcp: algo=%s", cfg.Ranks, cfg.Algorithm), cfg.rank == 0)
	if err != nil {
		return err
	}
	opts.ValMask = cfg.ValMask

	if tcpTr == nil {
		dialAddr := cfg.coordinator
		if cfg.host && cfg.rank == 0 {
			coord, err := comm.NewCoordinatorOpts(cfg.coordinator, cfg.Ranks, cfg.tcpOptions())
			if err != nil {
				return fmt.Errorf("hosting coordinator: %w", err)
			}
			go coord.Serve()
			dialAddr = coord.Addr()
		}
		if tcpTr, err = comm.DialTCPOpts(dialAddr, cfg.rank, cfg.Ranks, cfg.tcpOptions()); err != nil {
			return err
		}
		defer tcpTr.Close()
	}
	var tr comm.Transport = tcpTr
	if cfg.chaos != "" && cfg.rank == cfg.chaosRank {
		plan, err := comm.ParseFaultPlan(cfg.chaos)
		if err != nil {
			return err
		}
		ft := comm.NewFaultTransport(tcpTr, plan)
		// Crash like kill -9 would: no abort frame, no orderly close —
		// peers must detect the loss through the fabric itself.
		ft.Crash = func(reason string) {
			log.Printf("rank %d: %s", cfg.rank, reason)
			os.Exit(137)
		}
		tr = ft
	}
	report, err := cagnet.TrainRank(ds, opts, tr)
	if err != nil || cfg.rank != 0 {
		return err
	}
	return cfg.printReport(report, "max across ranks")
}

// build builds the dataset, prints the run's banner when told to, and
// sets the -val hold-out mask.
func (cfg *config) build(banner string, show bool) (*graph.Dataset, error) {
	spec, err := graph.AnalogByName(cfg.dataset)
	if err != nil {
		return nil, err
	}
	if cfg.quick {
		spec = spec.Quick()
	}
	ds := spec.Build()
	if show {
		n, nnz := ds.Graph.NumVertices, ds.Graph.NNZ()
		fmt.Printf("dataset %s: n=%d nnz=%d d=%.1f f=%d labels=%d\n",
			ds.Name, n, nnz, float64(nnz)/float64(n), ds.FeatureLen(), ds.NumLabels)
		fmt.Printf("%s epochs=%d lr=%g optimizer=%s machine=%s\n\n",
			banner, cfg.Epochs, cfg.LR, cfg.Optimizer, cfg.Machine)
	}

	// A -val fraction holds out vertices deterministically, spread evenly
	// across the index range: vertex v is validation when v·frac crosses an
	// integer boundary, so any fraction in (0, 1) selects ⌊n·frac⌋ vertices.
	// Training runs on the complement (derived by the library).
	if cfg.val > 0 {
		n := ds.Graph.NumVertices
		cfg.ValMask = make([]bool, n)
		picked := 0
		for v := 0; v < n; v++ {
			if int(float64(v+1)*cfg.val) > int(float64(v)*cfg.val) {
				cfg.ValMask[v] = true
				picked++
			}
		}
		if picked == 0 || picked == n {
			return nil, fmt.Errorf("-val %v leaves no usable train/validation split on %d vertices", cfg.val, n)
		}
	}
	return ds, nil
}

// printReport writes the report of a finished run; ranks says whose wall clock
// the measured time is.
func (cfg config) printReport(report *cagnet.TrainReport, ranks string) error {
	mach, err := costmodel.ProfileByName(cfg.Machine)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n\n", kernelsLine(report))
	if report.ResumedEpoch > 0 {
		fmt.Printf("resumed from checkpoint at epoch %d\n\n", report.ResumedEpoch)
	}
	for i, loss := range report.Losses {
		if report.ValAccuracy != nil {
			fmt.Printf("epoch %3d  loss %.6f  train-acc %.4f  val-acc %.4f\n",
				i+1, loss, report.TrainAccuracy[i], report.ValAccuracy[i])
			continue
		}
		fmt.Printf("epoch %3d  loss %.6f\n", i+1, loss)
	}
	// A resumed or drained run trained fewer epochs than -epochs, and its
	// modeled and measured totals cover only those.
	trained := cfg.Epochs
	if report.DrainedEpoch > 0 {
		note := "no checkpoint directory, nothing persisted"
		if cfg.Checkpoint.Dir != "" {
			note = "final checkpoint written"
		}
		fmt.Printf("\ndrained after epoch %d of %d (%s)\n", report.DrainedEpoch, cfg.Epochs, note)
		trained = report.DrainedEpoch
	}
	trained -= report.ResumedEpoch
	fmt.Printf("\nfinal training accuracy: %.4f\n", report.Accuracy)
	fmt.Printf("digest %s\n", report.Digest())
	if report.ModeledSeconds > 0 {
		mode := "bulk-synchronous"
		if cfg.Overlap {
			mode = "overlapped"
		}
		fmt.Printf("modeled time (%s, %s): %.4f s total, %s\n",
			mode, cfg.Machine, report.ModeledSeconds, perEpoch(report.ModeledSeconds, trained))
		if cfg.Overlap {
			fmt.Printf("communication hidden behind compute: %.4f s\n", report.HiddenCommSeconds)
		}
		fmt.Println("\nbreakdown (max across ranks, charged time per category):")
		for _, cat := range cagnet.CommCategories() {
			fmt.Printf("  %-7s %.6f s   %12d words\n",
				cat, report.TimeByCategory[cat], report.WordsByCategory[cat])
		}
	}
	if report.MeasuredSeconds > 0 {
		fmt.Printf("\nmeasured wall time (tcp, %s): %.4f s total, %s\n",
			ranks, report.MeasuredSeconds, perEpoch(report.MeasuredSeconds, trained))
		if report.FittedAlpha != 0 || report.FittedBeta != 0 {
			fmt.Printf("wire fit over %d samples: alpha=%.3g s/msg  beta=%.3g s/word (model: alpha=%.3g beta=%.3g)\n",
				report.WireSamples, report.FittedAlpha, report.FittedBeta,
				mach.Alpha, mach.Beta)
		}
	}
	return nil
}

// kernelsLine says which kernels produced the run: a wall-clock number
// without the instruction set cannot be compared across hosts. Every run
// trains in float64.
func kernelsLine(r *cagnet.TrainReport) string {
	return "kernels: precision=f64 isa=" + r.KernelISA
}

// perEpoch is a total's share per epoch this run trained; a run resumed at
// its final epoch trained none.
func perEpoch(total float64, epochs int) string {
	if epochs == 0 {
		return "no epoch trained"
	}
	return fmt.Sprintf("%.4f s/epoch", total/float64(epochs))
}

// validate rejects the flag values the library cannot see are wrong, with
// an error naming the offending flag. TrainOptions.Validate has every
// other verdict.
func (cfg config) validate() error {
	// The library reads a zero in these three as "use the default" (10
	// epochs, 1 rank, lr 0.01), so the run would not be the one the banner
	// and the per-epoch figures describe. A rank that negotiates its world
	// (-ranks 0 -host=false) learns the size at rendezvous.
	if cfg.Epochs < 1 {
		return fmt.Errorf("-epochs must be ≥ 1, got %d", cfg.Epochs)
	}
	negotiates := cfg.Ranks == 0 && !cfg.spawn && cfg.rank >= 0 && !cfg.host
	if cfg.Ranks < 1 && !negotiates {
		return fmt.Errorf("-ranks must be ≥ 1, got %d", cfg.Ranks)
	}
	if !(cfg.LR > 0) {
		return fmt.Errorf("-lr must be > 0, got %g", cfg.LR)
	}
	if cfg.val < 0 || cfg.val >= 1 {
		return fmt.Errorf("-val %v must be in [0, 1) (0 disables validation tracking)", cfg.val)
	}
	if cfg.Checkpoint.Every < 0 {
		return fmt.Errorf("-checkpoint-every %d must be positive", cfg.Checkpoint.Every)
	}
	if cfg.Checkpoint.Keep < 0 {
		return fmt.Errorf("-checkpoint-keep %d must be positive (0 keeps all)", cfg.Checkpoint.Keep)
	}
	if cfg.workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = runtime.NumCPU or $CAGNET_WORKERS), got %d", cfg.workers)
	}
	if !cfg.multiProcess() {
		return nil
	}
	// A world of processes talks over tcp, one rank per process.
	if cfg.Transport != "" {
		return fmt.Errorf("-transport %s: -spawn and -rank ranks talk over tcp, one process each", cfg.Transport)
	}
	if cfg.chaos != "" {
		if _, err := comm.ParseFaultPlan(cfg.chaos); err != nil {
			return err
		}
		if cfg.chaosRank < 0 || (cfg.Ranks > 0 && cfg.chaosRank >= cfg.Ranks) {
			return fmt.Errorf("-chaos-rank %d outside [0, %d)", cfg.chaosRank, cfg.Ranks)
		}
	}
	if cfg.spawn {
		if cfg.minWorld < 1 || cfg.minWorld > cfg.Ranks {
			return fmt.Errorf("-min-world %d outside [1, %d]", cfg.minWorld, cfg.Ranks)
		}
		return nil
	}
	if cfg.rank < 0 || (cfg.Ranks > 0 && cfg.rank >= cfg.Ranks) {
		return fmt.Errorf("-rank %d outside [0, %d) (flag or $CAGNET_RANK)", cfg.rank, cfg.Ranks)
	}
	if cfg.coordinator == "" {
		return fmt.Errorf("-rank %d: no coordinator address (flag -coordinator or $CAGNET_COORDINATOR)", cfg.rank)
	}
	return nil
}
