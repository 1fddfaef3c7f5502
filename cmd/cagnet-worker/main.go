// Command cagnet-worker runs ONE rank of a multi-process CAGNET training
// job over the real TCP transport. Every process builds the same dataset
// and trainer deterministically from identical flags, dials the
// coordinator for rendezvous, and then runs the unchanged internal/core
// trainer with its collectives crossing real sockets. Weights are
// bit-identical to the in-process simulator on the same seed; what the
// multi-process run adds is wall-clock epoch timing and a wire-fitted
// α/β next to the model's prediction.
//
// Manual launch (rank 0 hosts the rendezvous coordinator by default):
//
//	cagnet-worker -rank 0 -world 4 -coordinator 127.0.0.1:9000 &
//	cagnet-worker -rank 1 -world 4 -coordinator 127.0.0.1:9000 &
//	cagnet-worker -rank 2 -world 4 -coordinator 127.0.0.1:9000 &
//	cagnet-worker -rank 3 -world 4 -coordinator 127.0.0.1:9000
//
// Or let -spawn fork all P workers locally:
//
//	cagnet-worker -spawn -world 4 -dataset reddit-sim -algo 2d -quick
//
// -rank, -world, and -coordinator fall back to the CAGNET_RANK,
// CAGNET_WORLD, and CAGNET_COORDINATOR environment variables, so the
// binary drops into mpirun-style launchers that communicate placement
// through the environment. -rendezvous-timeout falls back to
// CAGNET_RENDEZVOUS_TIMEOUT.
//
// # Fault tolerance
//
// The fabric heartbeats every peer connection and enforces
// -progress-timeout on blocked collectives, so a dead or partitioned
// rank surfaces as a prompt error naming it instead of an indefinite
// hang; a failing rank broadcasts its root cause to the world before
// exiting. With -checkpoint-dir set, rank 0 writes atomic snapshots
// every -checkpoint-every epochs (plus one at the end) and a fresh start
// resumes from the latest snapshot bit-identically. -spawn then becomes
// a supervisor: when the world dies it restarts all ranks from the
// latest checkpoint with bounded exponential backoff, bumping the
// rendezvous generation so stragglers from the dead world are ignored.
// -chaos injects deterministic faults on one rank (e.g. crash@epoch=3)
// to exercise exactly these paths:
//
//	cagnet-worker -spawn -world 4 -quick -checkpoint-dir /tmp/ckpt \
//	    -checkpoint-every 1 -chaos crash@epoch=3
//
// # Elastic degraded-world training
//
// When the restart budget at the current world size is exhausted (or the
// same rank keeps dying), the supervisor stops trying to restore the
// world at full strength and shrinks it instead: the survivors are
// relaunched as a new generation with the largest world size P′ < P the
// algorithm supports (never below -min-world), resuming from the latest
// checkpoint. Snapshots are world-size-independent — replicated weights
// plus optimizer state — so the shrunken world repartitions the problem
// and trains on; the result is tolerance-equivalent (not bit-identical —
// accumulation orders change with the partition) to an uninterrupted run.
// Shrunken-generation workers are launched with -world 0 and adopt the
// world size from the generation's coordinator, which thereby acts as the
// membership service for each incarnation. -min-world equal to -world
// disables shrinking (the pre-elastic behavior).
//
// The flip side is graceful drain: SIGTERM to a worker (or to the -spawn
// supervisor, which forwards it) finishes the current epoch, writes a
// final checkpoint (rank 0), closes the transport in order, and exits 0 —
// planned maintenance never costs an epoch. The drain decision is a
// per-epoch collective vote, so every rank stops after the same epoch no
// matter which rank the signal landed on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	cagnet "repro"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parallel"
)

type config struct {
	rank        int
	world       int
	coordinator string
	host        bool
	spawn       bool

	// The training run, as the library's options; Ranks and Transport are
	// not flags: options sets them per world.
	cagnet.TrainOptions
	dataset string
	quick   bool

	rendezvousTimeout time.Duration
	progressTimeout   time.Duration
	heartbeatInterval time.Duration
	chaos             string
	chaosRank         int
	maxRestarts       int
	minWorld          int
	generation        int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-worker: ")
	var cfg config
	flag.IntVar(&cfg.rank, "rank", -1, "this process's rank in [0, world) (or $CAGNET_RANK)")
	flag.IntVar(&cfg.world, "world", 0, "total rank count (or $CAGNET_WORLD; 0 with -host=false adopts the size the coordinator announces)")
	flag.StringVar(&cfg.coordinator, "coordinator", "", "rendezvous coordinator host:port (or $CAGNET_COORDINATOR)")
	flag.BoolVar(&cfg.host, "host", true, "rank 0 hosts the coordinator at -coordinator (set -host=false when one already runs there)")
	flag.BoolVar(&cfg.spawn, "spawn", false, "fork all -world workers locally (and supervise them: with -checkpoint-dir, a crashed world restarts from the latest checkpoint)")
	flag.StringVar(&cfg.dataset, "dataset", "reddit-sim", "dataset analog (reddit-sim, amazon-sim, protein-sim)")
	flag.StringVar(&cfg.Algorithm, "algo", "2d", "algorithm: 1d, 1.5d, 2d, 3d (serial has no ranks)")
	flag.IntVar(&cfg.Epochs, "epochs", 10, "training epochs")
	flag.Float64Var(&cfg.LR, "lr", 0.01, "learning rate")
	flag.StringVar(&cfg.Optimizer, "optimizer", "sgd", "weight-update rule: sgd, momentum, adam")
	flag.IntVar(&cfg.ReplicationFactor, "replication", 0, "1.5d replication factor c (0 = default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "weight-initialization seed")
	flag.StringVar(&cfg.Machine, "machine", "summit-v100", "cost-model machine profile")
	flag.BoolVar(&cfg.Overlap, "overlap", false, "report the overlapped modeled time (critical path) and the communication it hides")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink the dataset for a fast run")
	flag.DurationVar(&cfg.rendezvousTimeout, "rendezvous-timeout", 0, "how long rendezvous and the mesh handshake may take (0 = 30s default; or $CAGNET_RENDEZVOUS_TIMEOUT)")
	flag.DurationVar(&cfg.progressTimeout, "progress-timeout", 0, "a blocked collective fails after this much silence from the awaited peer (0 = 30s default; negative disables)")
	flag.DurationVar(&cfg.heartbeatInterval, "heartbeat-interval", 0, "period between heartbeat frames to every peer (0 = 500ms default; negative disables)")
	flag.StringVar(&cfg.Checkpoint.Dir, "checkpoint-dir", "", "directory for atomic training-state snapshots; a start resumes from the latest one (empty disables)")
	flag.IntVar(&cfg.Checkpoint.Every, "checkpoint-every", 0, "epochs between snapshots (0 = only the final one)")
	flag.IntVar(&cfg.Checkpoint.Keep, "checkpoint-keep", 0, "retain only the newest N snapshots after each write (0 = keep all; the latest is never pruned)")
	flag.StringVar(&cfg.chaos, "chaos", "", "deterministic fault plan injected on the chaos rank, e.g. crash@epoch=3 or sever@op=40,delay@op=10:50ms")
	flag.IntVar(&cfg.chaosRank, "chaos-rank", 1, "rank the -chaos plan applies to")
	flag.IntVar(&cfg.maxRestarts, "max-restarts", 3, "-spawn: full-strength restarts from checkpoint at one world size before shrinking (or giving up at -min-world)")
	flag.IntVar(&cfg.minWorld, "min-world", 1, "-spawn: smallest world size elastic shrinking may fall back to (set to -world to disable shrinking)")
	flag.IntVar(&cfg.generation, "generation", 0, "rendezvous generation (set by the -spawn supervisor on restart)")
	flag.Parse()

	applyEnvFallback(&cfg)
	if err := run(cfg); err != nil {
		// run has already released the transport (and the cluster's Run
		// broadcast the root cause to surviving peers) on every failure path.
		log.Print(err)
		os.Exit(1)
	}
}

// applyEnvFallback fills rank/world/coordinator/rendezvous-timeout from
// the CAGNET_* environment when the flags were left at their defaults.
func applyEnvFallback(cfg *config) {
	if cfg.rank < 0 {
		if v, err := strconv.Atoi(os.Getenv("CAGNET_RANK")); err == nil {
			cfg.rank = v
		}
	}
	if cfg.world == 0 {
		if v, err := strconv.Atoi(os.Getenv("CAGNET_WORLD")); err == nil {
			cfg.world = v
		}
	}
	if cfg.coordinator == "" {
		cfg.coordinator = os.Getenv("CAGNET_COORDINATOR")
	}
	if cfg.rendezvousTimeout == 0 {
		if d, err := time.ParseDuration(os.Getenv("CAGNET_RENDEZVOUS_TIMEOUT")); err == nil {
			cfg.rendezvousTimeout = d
		}
	}
}

// tcpOptions assembles the fabric options this process runs with.
func (cfg config) tcpOptions() comm.TCPOptions {
	return comm.TCPOptions{
		RendezvousTimeout: cfg.rendezvousTimeout,
		HeartbeatInterval: cfg.heartbeatInterval,
		ProgressTimeout:   cfg.progressTimeout,
		Generation:        cfg.generation,
	}
}

// options is the training run this worker takes part in at world size p:
// TrainOptions.Validate gives the verdict on it before any rank is forked,
// dialled or trained.
func (cfg config) options(p int) cagnet.TrainOptions {
	o := cfg.TrainOptions
	o.Ranks, o.Transport = p, "tcp"
	return o
}

func run(cfg config) error {
	if cfg.chaos != "" {
		if _, err := comm.ParseFaultPlan(cfg.chaos); err != nil {
			return err
		}
		if cfg.chaosRank < 0 || (cfg.world > 0 && cfg.chaosRank >= cfg.world) {
			return fmt.Errorf("-chaos-rank %d outside [0, %d)", cfg.chaosRank, cfg.world)
		}
	}
	if cfg.Checkpoint.Every < 0 {
		return fmt.Errorf("-checkpoint-every %d must be positive", cfg.Checkpoint.Every)
	}
	if cfg.Checkpoint.Keep < 0 {
		return fmt.Errorf("-checkpoint-keep %d must be positive (0 keeps all)", cfg.Checkpoint.Keep)
	}
	if cfg.spawn {
		if cfg.world < 1 {
			return fmt.Errorf("-world %d: need at least one rank (flag or $CAGNET_WORLD)", cfg.world)
		}
		if cfg.minWorld < 1 || cfg.minWorld > cfg.world {
			return fmt.Errorf("-min-world %d outside [1, %d]", cfg.minWorld, cfg.world)
		}
		if err := cfg.options(cfg.world).Validate(); err != nil {
			return err
		}
		return supervise(cfg)
	}
	if cfg.world == 0 && !cfg.host && cfg.coordinator != "" {
		// Elastic membership: with -world 0 and an external coordinator,
		// this rank adopts whatever world size the coordinator announces at
		// rendezvous. Shrunken supervisor generations launch survivors this
		// way, making the coordinator the membership service per incarnation.
		if cfg.rank < 0 {
			return fmt.Errorf("-rank %d: negotiating -world 0 still needs a rank (flag or $CAGNET_RANK)", cfg.rank)
		}
		return runRank(cfg)
	}
	if cfg.world < 1 {
		return fmt.Errorf("-world %d: need at least one rank (flag or $CAGNET_WORLD)", cfg.world)
	}
	if cfg.rank < 0 || cfg.rank >= cfg.world {
		return fmt.Errorf("-rank %d outside [0, %d) (flag or $CAGNET_RANK)", cfg.rank, cfg.world)
	}
	if cfg.coordinator == "" {
		return fmt.Errorf("no coordinator address (flag -coordinator or $CAGNET_COORDINATOR)")
	}
	return runRank(cfg)
}

// supervise forks the whole world and, when checkpointing is on, restarts
// it from the latest snapshot after a crash — with bounded exponential
// backoff and a bumped rendezvous generation per attempt, so frames from
// a dead incarnation can never leak into the new one. Training is
// bulk-synchronous over replicated state, so whole-world restart from the
// last checkpoint is the recovery that preserves bit-identical results.
//
// When the restart budget at one world size runs out — or the same rank
// dies twice in a row, which the supervisor reads as a dead host — it
// stops trying to restore the world at full strength and shrinks it: the
// next generation runs at the largest algorithm-valid world size below the
// current one (never below -min-world), and its ranks negotiate the
// shrunken membership from that generation's coordinator. Snapshots are
// world-size independent, so the survivors repartition and resume from the
// same checkpoint; a shrunken run is tolerance-equivalent to an
// uninterrupted one, no longer bit-identical.
func supervise(cfg config) error {
	// SIGINT interrupts the between-generation backoff instead of sleeping
	// through it; SIGTERM is forwarded to the children by spawnAll so the
	// running generation drains gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	world := cfg.world
	restarts := 0 // restart attempts at the current world size
	lastFailed := -1
	for gen := cfg.generation; ; gen++ {
		failed, err := spawnAll(cfg, gen, world)
		if err == nil {
			if world < cfg.world {
				log.Printf("world completed degraded at %d of %d ranks", world, cfg.world)
			}
			return nil
		}
		if cfg.Checkpoint.Dir == "" {
			return fmt.Errorf("world failed with no -checkpoint-dir to restart from: %w", err)
		}
		deadHost := failed >= 0 && failed == lastFailed
		lastFailed = failed
		if restarts >= cfg.maxRestarts || deadHost {
			next := shrinkWorld(cfg, world)
			if next == 0 {
				return fmt.Errorf("giving up after %d restarts at world %d (no valid world size left above -min-world %d): %w",
					restarts, world, cfg.minWorld, err)
			}
			if deadHost {
				log.Printf("rank %d died twice in a row; treating its host as dead", failed)
			}
			log.Printf("world generation %d failed at world %d: %v; shrinking to %d survivors and resuming from latest checkpoint",
				gen, world, err, next)
			world, restarts, lastFailed = next, 0, -1
			continue
		}
		restarts++
		backoff := min((100*time.Millisecond)<<(restarts-1), 2*time.Second)
		log.Printf("world generation %d failed: %v; restarting from latest checkpoint in %v", gen, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fmt.Errorf("interrupted during restart backoff: %w", err)
		}
	}
}

// shrinkWorld returns the largest world size below world that the options
// validate at (perfect square for 2d, perfect cube for 3d, replication-
// divisible for 1.5d) and that -min-world permits, or 0 when none exists.
func shrinkWorld(cfg config, world int) int {
	for p := world - 1; p >= cfg.minWorld; p-- {
		if cfg.options(p).Validate() == nil {
			return p
		}
	}
	return 0
}

// spawnAll forks one worker process per rank for one generation, hosting
// that generation's rendezvous coordinator itself so the children only
// need its address. Children are launched with -world 0 and adopt the
// world size the coordinator announces — the same membership negotiation a
// shrunken generation relies on. The -chaos plan is forwarded to the chaos
// rank on the first generation only — a restarted world must not re-crash
// on the same scripted fault. It returns the lowest rank that failed (-1
// when none did) so the supervisor can spot a rank that dies repeatedly.
func spawnAll(cfg config, gen, world int) (failedRank int, err error) {
	coord, err := comm.NewCoordinatorOpts("127.0.0.1:0", world, comm.TCPOptions{
		RendezvousTimeout: cfg.rendezvousTimeout,
		Generation:        gen,
	})
	if err != nil {
		return -1, err
	}
	go coord.Serve()
	exe, err := os.Executable()
	if err != nil {
		return -1, err
	}
	args := []string{
		"-world", "0",
		"-coordinator", coord.Addr(),
		"-host=false",
		"-generation", strconv.Itoa(gen),
		"-dataset", cfg.dataset,
		"-algo", cfg.Algorithm,
		"-epochs", strconv.Itoa(cfg.Epochs),
		"-lr", strconv.FormatFloat(cfg.LR, 'g', -1, 64),
		"-optimizer", cfg.Optimizer,
		"-replication", strconv.Itoa(cfg.ReplicationFactor),
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-machine", cfg.Machine,
		"-rendezvous-timeout", cfg.rendezvousTimeout.String(),
		"-progress-timeout", cfg.progressTimeout.String(),
		"-heartbeat-interval", cfg.heartbeatInterval.String(),
		"-checkpoint-dir", cfg.Checkpoint.Dir,
		"-checkpoint-every", strconv.Itoa(cfg.Checkpoint.Every),
		"-checkpoint-keep", strconv.Itoa(cfg.Checkpoint.Keep),
	}
	if cfg.Overlap {
		args = append(args, "-overlap")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	procs := make([]*exec.Cmd, world)
	for r := 0; r < world; r++ {
		rankArgs := append([]string{"-rank", strconv.Itoa(r)}, args...)
		if cfg.chaos != "" && gen == cfg.generation && r == cfg.chaosRank {
			rankArgs = append(rankArgs, "-chaos", cfg.chaos, "-chaos-rank", strconv.Itoa(r))
		}
		procs[r] = exec.Command(exe, rankArgs...)
		procs[r].Stdout = os.Stdout
		procs[r].Stderr = os.Stderr
		// Blank CAGNET_WORLD so the children negotiate -world 0 from the
		// coordinator instead of resurrecting a stale environment value.
		procs[r].Env = append(os.Environ(), "CAGNET_WORLD=")
		if err := procs[r].Start(); err != nil {
			for _, p := range procs[:r] {
				p.Process.Kill()
				p.Wait()
			}
			return -1, fmt.Errorf("spawning rank %d: %w", r, err)
		}
	}
	// Forward SIGTERM to every child: each rank finishes the current epoch,
	// the world votes to drain, rank 0 writes a final checkpoint, and all
	// exit 0 — so the supervisor sees a clean generation and exits 0 too.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-sigCh:
				log.Printf("supervisor: %v; forwarding to all %d ranks for graceful drain", sig, world)
				for _, p := range procs {
					if p.Process != nil {
						p.Process.Signal(sig)
					}
				}
			case <-done:
				return
			}
		}
	}()
	defer func() {
		signal.Stop(sigCh)
		close(done)
	}()
	// Abort propagation and the progress timeout make every healthy rank
	// exit on its own shortly after any rank dies, so waiting for all of
	// them is bounded even on failure.
	failedRank = -1
	var firstErr error
	for r, p := range procs {
		if err := p.Wait(); err != nil && firstErr == nil {
			failedRank = r
			firstErr = fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return failedRank, firstErr
}

// rankWorkers sizes one rank's kernel pool. A positive CAGNET_WORKERS
// (env) is taken as given — 1 runs the rank single-threaded. Otherwise the
// world's ranks are taken to share one host of cpus cores, so each gets
// cpus/world workers, at least one: together they use about cpus workers
// instead of world·cpus.
func rankWorkers(env string, cpus, world int) int {
	if n, err := strconv.Atoi(env); err == nil && n > 0 {
		return n
	}
	return max(cpus/world, 1)
}

// runRank executes this process's share of the training job. Only rank 0
// prints the report; the other ranks stay silent and contribute their
// ledgers and wire samples through a final gather.
func runRank(cfg config) error {
	mach, err := costmodel.ProfileByName(cfg.Machine)
	if err != nil {
		return err
	}
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

	var tcpTr *comm.TCPTransport
	if cfg.world == 0 {
		// Elastic membership: rendezvous first and adopt the coordinator's
		// announced world size; everything below sizes itself off it.
		tcpTr, err = comm.DialTCPOpts(cfg.coordinator, cfg.rank, 0, cfg.tcpOptions())
		if err != nil {
			return err
		}
		defer tcpTr.Close()
		cfg.world = tcpTr.Size()
		log.Printf("rank %d: adopted world size %d from coordinator (generation %d)", cfg.rank, cfg.world, cfg.generation)
	}
	// A fixed world is checked before it dials, a negotiated one as soon as
	// it knows its size.
	if err := cfg.options(cfg.world).Validate(); err != nil {
		return err
	}
	parallel.SetWorkers(rankWorkers(os.Getenv("CAGNET_WORKERS"), runtime.NumCPU(), cfg.world))

	spec, err := graph.AnalogByName(cfg.dataset)
	if err != nil {
		return err
	}
	if cfg.quick {
		spec = spec.Quick()
	}
	ds := spec.Build()
	trainer, err := core.NewTrainerReplicated(cfg.Algorithm, cfg.world, cfg.ReplicationFactor, mach)
	if err != nil {
		return err
	}
	problem := core.Problem{
		A:          ds.Graph.NormalizedAdjacency(),
		Features:   ds.Features,
		Labels:     ds.Labels,
		Checkpoint: checkpoint.Options(cfg.Checkpoint),
		Drain:      func() bool { return draining.Load() },
		Config: nn.Config{
			Widths:    ds.LayerWidths(),
			LR:        cfg.LR,
			Optimizer: cfg.Optimizer,
			Epochs:    cfg.Epochs,
			Seed:      cfg.Seed,
		},
	}

	if tcpTr == nil {
		dialAddr := cfg.coordinator
		if cfg.host && cfg.rank == 0 {
			coord, err := comm.NewCoordinatorOpts(cfg.coordinator, cfg.world, cfg.tcpOptions())
			if err != nil {
				return fmt.Errorf("hosting coordinator: %w", err)
			}
			go coord.Serve()
			dialAddr = coord.Addr()
		}
		tcpTr, err = comm.DialTCPOpts(dialAddr, cfg.rank, cfg.world, cfg.tcpOptions())
		if err != nil {
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
	c := comm.NewTransportComm(tr, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta})
	meter := c.EnableMetering()
	// This process hosts one rank of the world. The cluster's Run is the
	// failure policy: a fabric panic — a peer failure, progress timeout, or
	// checkpoint write error — comes back as an error naming the rank, after
	// its root cause was broadcast so the surviving peers fail fast with
	// "rank N aborted: ..." instead of waiting out a connection loss; the
	// deferred Close then tears the fabric down.
	if err := core.SetCluster(trainer, comm.ClusterOf(c)); err != nil {
		return err
	}

	start := time.Now()
	res, err := trainer.Train(problem)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	// Summarize this rank before the gather below adds its own traffic:
	// [wall, modeled time, hidden comm, then (msgs, words, secs) wire
	// sample triples]. The modeled time is the bulk sum, or with -overlap
	// the timeline clock and the communication it hid. Payload lengths may
	// differ per rank; Gather keeps the boundaries.
	ledger := c.Ledger()
	summary := []float64{wall, ledger.TotalTime(), 0}
	if cfg.Overlap {
		summary[1], summary[2] = ledger.Elapsed(), ledger.HiddenCommTime()
	}
	msgs, words, secs := meter.Samples()
	for i := range secs {
		summary = append(summary, msgs[i], words[i], secs[i])
	}
	all := c.World().Gather(0, comm.Payload{Floats: summary}, comm.CatMisc)
	if cfg.rank != 0 {
		return nil
	}

	var wallMax, modeledMax, hiddenMax float64
	var fm, fw, fs []float64
	for _, p := range all {
		s := p.Floats
		wallMax = max(wallMax, s[0])
		modeledMax = max(modeledMax, s[1])
		hiddenMax = max(hiddenMax, s[2])
		for i := 3; i+2 < len(s); i += 3 {
			fm, fw, fs = append(fm, s[i]), append(fw, s[i+1]), append(fs, s[i+2])
		}
	}

	a := ds.Graph.Adjacency()
	fmt.Printf("dataset %s: n=%d nnz=%d d=%.1f f=%d labels=%d\n",
		ds.Name, ds.Graph.NumVertices, a.NNZ(), a.AvgDegree(), ds.FeatureLen(), ds.NumLabels)
	fmt.Printf("world %d ranks over tcp: algo=%s epochs=%d lr=%g optimizer=%s machine=%s\n\n",
		cfg.world, cfg.Algorithm, cfg.Epochs, cfg.LR, cfg.Optimizer, cfg.Machine)
	if res.ResumedEpoch > 0 {
		fmt.Printf("resumed from checkpoint at epoch %d\n\n", res.ResumedEpoch)
	}
	for i, loss := range res.Losses {
		fmt.Printf("epoch %3d  loss %.6f\n", i+1, loss)
	}
	if res.DrainedEpoch > 0 {
		note := "no checkpoint directory, nothing persisted"
		if cfg.Checkpoint.Dir != "" {
			note = "final checkpoint written"
		}
		fmt.Printf("\ndrained after epoch %d of %d (%s)\n", res.DrainedEpoch, cfg.Epochs, note)
	}
	fmt.Printf("\nfinal training accuracy: %.4f\n\n", res.Accuracy)
	// A resumed or drained run trained fewer epochs than -epochs, and its
	// ledger and wall clock cover only those.
	trained := cfg.Epochs
	if res.DrainedEpoch > 0 {
		trained = res.DrainedEpoch
	}
	epochs := trained - res.ResumedEpoch
	fmt.Printf("measured wall time:        %.4f s total, %s (max across ranks)\n",
		wallMax, perEpoch(wallMax, epochs))
	fmt.Printf("modeled time (%s): %.4f s total, %s\n",
		cfg.Machine, modeledMax, perEpoch(modeledMax, epochs))
	if cfg.Overlap {
		fmt.Printf("communication hidden behind compute (modeled): %.4f s\n", hiddenMax)
	}
	if alpha, beta, err := costmodel.FitAlphaBeta(fm, fw, fs); err == nil {
		fmt.Printf("wire fit over %d samples: alpha=%.3g s/msg  beta=%.3g s/word\n",
			len(fs), alpha, beta)
	} else {
		fmt.Printf("wire fit unavailable over %d samples: %v\n", len(fs), err)
	}
	return nil
}

// perEpoch is a total's share per epoch this run trained; a run resumed at
// its final epoch trained none.
func perEpoch(total float64, epochs int) string {
	if epochs == 0 {
		return "no epoch trained"
	}
	return fmt.Sprintf("%.4f s/epoch", total/float64(epochs))
}
