// Command cagnet-train trains a GCN on a dataset analog with any of the
// paper's algorithms and prints per-epoch losses plus the modeled cost
// breakdown.
//
// Usage:
//
//	cagnet-train [-dataset reddit-sim] [-algo 2d] [-ranks 16] [-epochs 10]
//	             [-lr 0.01] [-optimizer sgd] [-replication 0] [-val 0]
//	             [-halo] [-partitioner block] [-overlap] [-machine summit-v100]
//	             [-precision f64] [-transport inproc] [-workers 0] [-quick]
//	             [-checkpoint-dir DIR] [-checkpoint-every N]
//
// Flag combinations that would have no effect are rejected up front —
// before the dataset build — rather than silently ignored: the flags become
// a cagnet.TrainOptions whose Validate gives the library's verdict (-halo
// and -partitioner need the row decompositions 1d and 1.5d, -precision f32
// needs -algo serial, -overlap and -transport tcp a distributed algorithm),
// after the few checks only the command line adds. -workers sets the kernel
// worker pool: 1 runs every kernel single-threaded, and every count trains
// the same bits.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-train: ")
	dataset := flag.String("dataset", "reddit-sim", "dataset analog (reddit-sim, amazon-sim, protein-sim)")
	// The flags are the library's options; Validate has the verdict on them.
	var opts cagnet.TrainOptions
	flag.StringVar(&opts.Algorithm, "algo", "2d", "algorithm: serial, 1d, 1.5d, 2d, 3d (every one also takes a directed graph)")
	flag.IntVar(&opts.Ranks, "ranks", 16, "simulated rank count")
	flag.IntVar(&opts.Epochs, "epochs", 10, "training epochs")
	flag.Float64Var(&opts.LR, "lr", 0.01, "learning rate")
	flag.StringVar(&opts.Optimizer, "optimizer", "sgd", "weight-update rule: sgd, momentum, adam")
	flag.IntVar(&opts.ReplicationFactor, "replication", 0, "1.5d replication factor c (0 = default; must divide ranks)")
	flag.BoolVar(&opts.HaloExchange, "halo", false, "1d/1.5d: fetch only the rows each rank's adjacency block touches instead of broadcasting dense blocks")
	flag.StringVar(&opts.Partitioner, "partitioner", "", "1d/1.5d vertex partitioner: block (default), random, ldg")
	flag.BoolVar(&opts.Overlap, "overlap", false, "report the overlapped modeled time (critical path) and the communication it hides instead of the bulk-synchronous sum")
	flag.StringVar(&opts.Precision, "precision", "", "kernel precision: f64 (default) or f32 mixed precision (serial algo only)")
	valFrac := flag.Float64("val", 0, "fraction of vertices held out for validation tracking (0 disables)")
	flag.StringVar(&opts.Transport, "transport", "", "rank fabric: inproc (default; simulated channels) or tcp (real loopback sockets with wall-clock timing and a wire-fitted alpha/beta)")
	flag.StringVar(&opts.Checkpoint.Dir, "checkpoint-dir", "", "directory for atomic training-state snapshots; resumes from the latest one when present (empty disables)")
	flag.IntVar(&opts.Checkpoint.Every, "checkpoint-every", 0, "epochs between snapshots (0 = only the final one; needs -checkpoint-dir)")
	flag.StringVar(&opts.Machine, "machine", "summit-v100", "cost-model machine profile")
	workers := flag.Int("workers", 0, "kernel worker count (1 = single-threaded; 0 = runtime.NumCPU or $CAGNET_WORKERS)")
	quickFlag := flag.Bool("quick", false, "shrink the dataset for a fast run")
	flag.Parse()

	// Every verdict comes before the (potentially expensive) dataset build:
	// first what only the command line adds, then the library's.
	if err := validateFlags(flagCombo{
		epochs: opts.Epochs, ranks: opts.Ranks, lr: opts.LR, val: *valFrac, ckptEvery: opts.Checkpoint.Every, workers: *workers,
	}); err != nil {
		log.Fatal(err)
	}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}
	mach, err := costmodel.ProfileByName(opts.Machine)
	if err != nil {
		log.Fatal(err)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	spec, err := graph.AnalogByName(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	if *quickFlag {
		spec = spec.Quick()
	}
	ds := spec.Build()
	a := ds.Graph.Adjacency()
	fmt.Printf("dataset %s: n=%d nnz=%d d=%.1f f=%d labels=%d\n",
		ds.Name, ds.Graph.NumVertices, a.NNZ(), a.AvgDegree(), ds.FeatureLen(), ds.NumLabels)
	fmt.Printf("training: algo=%s ranks=%d epochs=%d lr=%g optimizer=%s machine=%s\n\n",
		opts.Algorithm, opts.Ranks, opts.Epochs, opts.LR, opts.Optimizer, opts.Machine)

	// A -val fraction holds out vertices deterministically, spread evenly
	// across the index range: vertex v is validation when v·frac crosses an
	// integer boundary, so any fraction in (0, 1) selects ⌊n·frac⌋ vertices.
	// Training runs on the complement (derived by the library).
	if *valFrac > 0 {
		n := ds.Graph.NumVertices
		opts.ValMask = make([]bool, n)
		picked := 0
		for v := 0; v < n; v++ {
			if int(float64(v+1)**valFrac) > int(float64(v)**valFrac) {
				opts.ValMask[v] = true
				picked++
			}
		}
		if picked == 0 || picked == n {
			log.Fatalf("-val %v leaves no usable train/validation split on %d vertices", *valFrac, n)
		}
	}

	report, err := cagnet.Train(ds, opts)
	if err != nil {
		log.Fatal(err)
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
	fmt.Printf("\nfinal training accuracy: %.4f\n", report.Accuracy)
	// The modeled and measured totals cover only the epochs this run
	// trained: a resumed run starts at ResumedEpoch.
	trained := opts.Epochs - report.ResumedEpoch
	if report.ModeledSeconds > 0 {
		mode := "bulk-synchronous"
		if opts.Overlap {
			mode = "overlapped"
		}
		fmt.Printf("modeled time (%s, %s): %.4f s total, %s\n",
			mode, opts.Machine, report.ModeledSeconds, perEpoch(report.ModeledSeconds, trained))
		if opts.Overlap {
			fmt.Printf("communication hidden behind compute: %.4f s\n", report.HiddenCommSeconds)
		}
		fmt.Println("\nbreakdown (max across ranks, charged time per category):")
		for _, cat := range cagnet.CommCategories() {
			fmt.Printf("  %-7s %.6f s   %12d words\n",
				cat, report.TimeByCategory[cat], report.WordsByCategory[cat])
		}
	}
	if report.MeasuredSeconds > 0 {
		fmt.Printf("\nmeasured wall time (tcp, all ranks on this host): %.4f s total, %s\n",
			report.MeasuredSeconds, perEpoch(report.MeasuredSeconds, trained))
		if report.FittedAlpha != 0 || report.FittedBeta != 0 {
			fmt.Printf("wire fit over %d samples: alpha=%.3g s/msg  beta=%.3g s/word (model: alpha=%.3g beta=%.3g)\n",
				report.WireSamples, report.FittedAlpha, report.FittedBeta,
				mach.Alpha, mach.Beta)
		}
	}
}

// flagCombo carries the flags only the command line checks: the library
// reads a zero in -epochs, -ranks and -lr as "use the default", and
// -workers, -val and -checkpoint-every have no library counterpart with
// the same range.
type flagCombo struct {
	epochs    int
	ranks     int
	lr        float64
	workers   int
	val       float64
	ckptEvery int
}

// kernelsLine says which kernels produced the run: a wall-clock number
// without the instruction set cannot be compared across hosts.
func kernelsLine(r *cagnet.TrainReport) string {
	return fmt.Sprintf("kernels: precision=%s isa=%s", r.Precision, r.KernelISA)
}

// perEpoch is a total's share per epoch this run trained; a run resumed at
// its final epoch trained none.
func perEpoch(total float64, epochs int) string {
	if epochs == 0 {
		return "no epoch trained"
	}
	return fmt.Sprintf("%.4f s/epoch", total/float64(epochs))
}

// validateFlags rejects the flag values the library cannot see are wrong,
// with an error naming the offending flag. TrainOptions.Validate has every
// other verdict.
func validateFlags(f flagCombo) error {
	// The library reads a zero in these three as "use the default" (10
	// epochs, 1 rank, lr 0.01), so the run would not be the one the banner
	// and the per-epoch figures describe.
	if f.epochs < 1 {
		return fmt.Errorf("-epochs must be ≥ 1, got %d", f.epochs)
	}
	if f.ranks < 1 {
		return fmt.Errorf("-ranks must be ≥ 1, got %d", f.ranks)
	}
	if !(f.lr > 0) {
		return fmt.Errorf("-lr must be > 0, got %g", f.lr)
	}
	if f.val < 0 || f.val >= 1 {
		return fmt.Errorf("-val %v must be in [0, 1) (0 disables validation tracking)", f.val)
	}
	if f.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d must be positive", f.ckptEvery)
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = runtime.NumCPU or $CAGNET_WORKERS), got %d", f.workers)
	}
	return nil
}
