package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/comm"
)

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
	world := cfg.Ranks
	restarts := 0 // restart attempts at the current world size
	lastFailed := -1
	for gen := cfg.generation; ; gen++ {
		failed, err := spawnAll(cfg, gen, world)
		if err == nil {
			if world < cfg.Ranks {
				log.Printf("world completed degraded at %d of %d ranks", world, cfg.Ranks)
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

// spawnAll forks one rank process per rank for one generation, hosting
// that generation's rendezvous coordinator itself so the children only
// need its address, and passing each every training flag that was set.
// Children are launched with -ranks 0 and adopt the
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
	args := append([]string{
		"-ranks", "0",
		"-coordinator", coord.Addr(),
		"-host=false",
		"-generation", strconv.Itoa(gen),
	}, cfg.forward...)
	procs := make([]*exec.Cmd, world)
	for r := 0; r < world; r++ {
		rankArgs := append([]string{"-rank", strconv.Itoa(r)}, args...)
		if cfg.chaos != "" && gen == cfg.generation && r == cfg.chaosRank {
			rankArgs = append(rankArgs, "-chaos", cfg.chaos, "-chaos-rank", strconv.Itoa(r))
		}
		procs[r] = exec.Command(exe, rankArgs...)
		procs[r].Stdout = os.Stdout
		procs[r].Stderr = os.Stderr
		// Blank CAGNET_WORLD so the children negotiate -ranks 0 from the
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
