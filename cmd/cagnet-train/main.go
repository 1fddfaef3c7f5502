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
// before the dataset build — rather than silently ignored: -halo and
// -partitioner need the row decompositions (1d, 1.5d), -precision f32
// needs -algo serial, and -overlap and -transport tcp need a distributed
// algorithm. -workers sets the kernel worker pool: 1 runs every kernel
// single-threaded, and every count trains the same bits.
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
	algo := flag.String("algo", "2d", "algorithm: serial, 1d, 1.5d, 2d, 3d (all but 3d also take a directed graph)")
	ranks := flag.Int("ranks", 16, "simulated rank count")
	epochs := flag.Int("epochs", 10, "training epochs")
	lr := flag.Float64("lr", 0.01, "learning rate")
	optimizer := flag.String("optimizer", "sgd", "weight-update rule: sgd, momentum, adam")
	replication := flag.Int("replication", 0, "1.5d replication factor c (0 = default; must divide ranks)")
	halo := flag.Bool("halo", false, "1d/1.5d: fetch only the rows each rank's adjacency block touches instead of broadcasting dense blocks")
	partitioner := flag.String("partitioner", "", "1d/1.5d vertex partitioner: block (default), random, ldg")
	overlap := flag.Bool("overlap", false, "report the overlapped modeled time (critical path) and the communication it hides instead of the bulk-synchronous sum")
	precision := flag.String("precision", "", "kernel precision: f64 (default) or f32 mixed precision (serial algo only)")
	valFrac := flag.Float64("val", 0, "fraction of vertices held out for validation tracking (0 disables)")
	transport := flag.String("transport", "", "rank fabric: inproc (default; simulated channels) or tcp (real loopback sockets with wall-clock timing and a wire-fitted alpha/beta)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for atomic training-state snapshots; resumes from the latest one when present (empty disables)")
	ckptEvery := flag.Int("checkpoint-every", 0, "epochs between snapshots (0 = only the final one; needs -checkpoint-dir)")
	machine := flag.String("machine", "summit-v100", "cost-model machine profile")
	workers := flag.Int("workers", 0, "kernel worker count (1 = single-threaded; 0 = runtime.NumCPU or $CAGNET_WORKERS)")
	quickFlag := flag.Bool("quick", false, "shrink the dataset for a fast run")
	flag.Parse()

	// Validate the flag combinations before the (potentially expensive)
	// dataset build; Train applies the options and would reject the same
	// combinations, but only after the build.
	if err := validateFlags(flagCombo{
		epochs: *epochs, ranks: *ranks, lr: *lr,
		algo: *algo, halo: *halo, partitioner: *partitioner, overlap: *overlap,
		precision: *precision, transport: *transport, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
		workers: *workers,
	}); err != nil {
		log.Fatal(err)
	}
	mach, err := costmodel.ProfileByName(*machine)
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
		*algo, *ranks, *epochs, *lr, *optimizer, *machine)

	// A -val fraction holds out vertices deterministically, spread evenly
	// across the index range: vertex v is validation when v·frac crosses an
	// integer boundary, so any fraction in (0, 1) selects ⌊n·frac⌋ vertices.
	// Training runs on the complement (derived by the library).
	var valMask []bool
	if *valFrac > 0 {
		if *valFrac >= 1 {
			log.Fatalf("-val %v must be in (0, 1)", *valFrac)
		}
		n := ds.Graph.NumVertices
		valMask = make([]bool, n)
		picked := 0
		for v := 0; v < n; v++ {
			if int(float64(v+1)**valFrac) > int(float64(v)**valFrac) {
				valMask[v] = true
				picked++
			}
		}
		if picked == 0 || picked == n {
			log.Fatalf("-val %v leaves no usable train/validation split on %d vertices", *valFrac, n)
		}
	}

	report, err := cagnet.Train(ds, cagnet.TrainOptions{
		Algorithm:         *algo,
		Ranks:             *ranks,
		Epochs:            *epochs,
		LR:                *lr,
		Optimizer:         *optimizer,
		ReplicationFactor: *replication,
		Partitioner:       *partitioner,
		HaloExchange:      *halo,
		Overlap:           *overlap,
		Precision:         *precision,
		Transport:         *transport,
		ValMask:           valMask,
		Machine:           *machine,
		Checkpoint:        cagnet.CheckpointOptions{Dir: *ckptDir, Every: *ckptEvery},
	})
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
	trained := float64(*epochs - report.ResumedEpoch)
	if report.ModeledSeconds > 0 {
		mode := "bulk-synchronous"
		if *overlap {
			mode = "overlapped"
		}
		fmt.Printf("modeled time (%s, %s): %.4f s total, %.4f s/epoch\n",
			mode, *machine, report.ModeledSeconds, report.ModeledSeconds/trained)
		if *overlap {
			fmt.Printf("communication hidden behind compute: %.4f s\n", report.HiddenCommSeconds)
		}
		fmt.Println("\nbreakdown (max across ranks, charged time per category):")
		for _, cat := range cagnet.CommCategories() {
			fmt.Printf("  %-7s %.6f s   %12d words\n",
				cat, report.TimeByCategory[cat], report.WordsByCategory[cat])
		}
	}
	if report.MeasuredSeconds > 0 {
		fmt.Printf("\nmeasured wall time (tcp, all ranks on this host): %.4f s total, %.4f s/epoch\n",
			report.MeasuredSeconds, report.MeasuredSeconds/trained)
		if report.FittedAlpha != 0 || report.FittedBeta != 0 {
			fmt.Printf("wire fit over %d samples: alpha=%.3g s/msg  beta=%.3g s/word (model: alpha=%.3g beta=%.3g)\n",
				report.WireSamples, report.FittedAlpha, report.FittedBeta,
				mach.Alpha, mach.Beta)
		}
	}
}

// flagCombo carries the flags whose combinations validateFlags vets.
type flagCombo struct {
	epochs      int
	ranks       int
	lr          float64
	algo        string
	halo        bool
	partitioner string
	overlap     bool
	precision   string
	transport   string
	ckptDir     string
	ckptEvery   int
	workers     int
}

// kernelsLine says which kernels produced the run: a wall-clock number
// without the instruction set cannot be compared across hosts.
func kernelsLine(r *cagnet.TrainReport) string {
	return fmt.Sprintf("kernels: precision=%s isa=%s", r.Precision, r.KernelISA)
}

// validateFlags rejects flag values and combinations that would otherwise
// do nothing for the chosen algorithm, with an error naming the offending
// flag.
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
	rowAlgo := f.algo == "1d" || f.algo == "1.5d"
	if f.halo && !rowAlgo {
		return fmt.Errorf("-halo applies to the row decompositions (-algo 1d or 1.5d), not %q", f.algo)
	}
	if f.partitioner != "" && !rowAlgo {
		return fmt.Errorf("-partitioner applies to the row decompositions (-algo 1d or 1.5d), not %q", f.algo)
	}
	if f.overlap && f.algo == "serial" {
		return fmt.Errorf("-overlap needs a distributed algorithm; -algo serial has no communication to hide")
	}
	if f.algo != "serial" && f.precision != "" && f.precision != "f64" {
		return fmt.Errorf("-precision %s applies to -algo serial only, not %q", f.precision, f.algo)
	}
	switch f.transport {
	case "", "inproc":
	case "tcp":
		if f.algo == "serial" {
			return fmt.Errorf("-transport tcp needs a distributed algorithm; -algo serial has no ranks")
		}
	default:
		return fmt.Errorf("-transport %q: want inproc or tcp", f.transport)
	}
	if f.ckptEvery != 0 && f.ckptDir == "" {
		return fmt.Errorf("-checkpoint-every %d does nothing without -checkpoint-dir", f.ckptEvery)
	}
	if f.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d must be positive", f.ckptEvery)
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = runtime.NumCPU or $CAGNET_WORKERS), got %d", f.workers)
	}
	return nil
}
