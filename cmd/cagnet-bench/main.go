// Command cagnet-bench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment prints an aligned text table mirroring
// the corresponding artifact in the paper; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	cagnet-bench [-exp all|tableVI|fig2|fig3|partition|crossover|algo3d|overlap|kernels|scaling|convergence|transport|fault]
//	             [-quick] [-machine summit-v100] [-optimizer sgd]
//	             [-halo] [-partitioner block] [-overlap]
//	             [-backend parallel] [-workers 0] [-json path]
//
// With -json, the structured per-experiment results (timings, words,
// reductions — the same numbers the text tables print) are additionally
// written to the given file as a single JSON document, so benchmark
// trajectories (BENCH_*.json) can be committed and diffed across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/parallel"
)

// benchSnapshot is the -json document: the options the run used plus one
// entry per executed experiment.
type benchSnapshot struct {
	Machine     string         `json:"machine"`
	Quick       bool           `json:"quick"`
	Optimizer   string         `json:"optimizer"`
	Halo        bool           `json:"halo"`
	Partitioner string         `json:"partitioner,omitempty"`
	Overlap     bool           `json:"overlap,omitempty"`
	Experiments map[string]any `json:"experiments"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-bench: ")
	exp := flag.String("exp", "all", "experiment: all, tableVI, fig2, fig3, partition, crossover, algo3d, overlap, kernels, scaling, convergence, transport, fault")
	quick := flag.Bool("quick", false, "use reduced dataset sizes")
	machine := flag.String("machine", costmodel.SummitSim.Name, "cost-model machine profile")
	optimizer := flag.String("optimizer", "sgd", "weight-update rule for the convergence experiment: sgd, momentum, adam")
	halo := flag.Bool("halo", false, "use the sparsity-aware halo exchange for 1d/1.5d measurements (crossover, algo3d)")
	partitioner := flag.String("partitioner", "", "vertex partitioner for 1d/1.5d measurements (crossover, algo3d): block, random, ldg")
	overlap := flag.Bool("overlap", false, "pipeline the crossover/algo3d measurements with non-blocking collectives (the overlap experiment always measures both modes)")
	backendFlag := flag.String("backend", "", "compute backend: serial or parallel (default: parallel, or $CAGNET_BACKEND)")
	workers := flag.Int("workers", 0, "parallel backend worker count (0 = runtime.NumCPU or $CAGNET_WORKERS)")
	jsonPath := flag.String("json", "", "also write the structured results to this file as JSON")
	flag.Parse()

	if *backendFlag != "" {
		backend, err := parallel.ParseBackend(*backendFlag)
		if err != nil {
			log.Fatal(err)
		}
		parallel.SetBackend(backend)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	mach, err := costmodel.ProfileByName(*machine)
	if err != nil {
		log.Fatal(err)
	}
	opts := harness.Options{
		Machine: mach, Quick: *quick, Optimizer: *optimizer,
		Halo: *halo, Partitioner: *partitioner, Overlap: *overlap,
	}

	runners := map[string]func(harness.Options) (any, error){
		"tableVI":     runTableVI,
		"fig2":        runFig2,
		"fig3":        runFig3,
		"partition":   runPartition,
		"crossover":   runCrossover,
		"algo3d":      runAlgo3D,
		"overlap":     runOverlap,
		"kernels":     runKernels,
		"scaling":     runScaling,
		"convergence": runConvergence,
		"transport":   runTransport,
		"fault":       runFault,
	}
	order := []string{"tableVI", "fig2", "fig3", "partition", "crossover", "algo3d", "overlap", "kernels", "scaling", "convergence", "transport", "fault"}

	snapshot := benchSnapshot{
		Machine: mach.Name, Quick: *quick, Optimizer: *optimizer,
		Halo: *halo, Partitioner: *partitioner, Overlap: *overlap,
		Experiments: map[string]any{},
	}
	selected := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			log.Fatalf("unknown experiment %q (want all, %v)", *exp, order)
		}
		selected = []string{*exp}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateConsumed(explicit, selected); err != nil {
		log.Fatal(err)
	}
	for _, name := range selected {
		data, err := runners[name](opts)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		snapshot.Experiments[name] = data
	}
	if *jsonPath != "" {
		if err := writeSnapshot(*jsonPath, snapshot); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonPath)
	}
}

// flagConsumers maps each opt-in measurement flag to the experiments that
// actually read it. -halo/-partitioner/-overlap reach the experiments that
// measure configurable 1D/1.5D runs (the partition and overlap experiments
// always measure both modes themselves), -optimizer only changes the
// convergence experiment (optimizer state is replicated, so it moves no
// words anywhere else).
var flagConsumers = map[string][]string{
	"halo":        {"crossover", "algo3d"},
	"partitioner": {"crossover", "algo3d"},
	"overlap":     {"crossover", "algo3d"},
	"optimizer":   {"convergence"},
}

// validateConsumed rejects explicitly-set flags that no selected
// experiment reads: silently dropping them would present the run as
// something it is not (and poison a committed BENCH_*.json's header).
func validateConsumed(explicit map[string]bool, selected []string) error {
	on := map[string]bool{}
	for _, name := range selected {
		on[name] = true
	}
	for name, consumers := range flagConsumers {
		if !explicit[name] {
			continue
		}
		used := false
		for _, c := range consumers {
			if on[c] {
				used = true
				break
			}
		}
		if !used {
			return fmt.Errorf("-%s is only read by %v; none of them run with -exp %v", name, consumers, selected)
		}
	}
	return nil
}

// writeSnapshot marshals the snapshot with stable indentation so committed
// trajectory points (BENCH_*.json) diff cleanly run to run.
func writeSnapshot(path string, s benchSnapshot) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func runTableVI(o harness.Options) (any, error) {
	rows, err := harness.TableVI(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== Table VI: datasets (paper scale vs simulated analog) ==")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			strconv.Itoa(r.PaperVertices), strconv.FormatInt(r.PaperEdges, 10),
			strconv.Itoa(r.PaperFeatures), strconv.Itoa(r.PaperLabels),
			strconv.Itoa(r.SimVertices), strconv.FormatInt(r.SimEdges, 10),
			harness.FormatFloat(r.SimAvgDegree),
			strconv.Itoa(r.SimFeatures), strconv.Itoa(r.SimLabels),
		})
	}
	fmt.Println(harness.Table(
		[]string{"dataset", "paper-n", "paper-nnz", "paper-f", "paper-lab",
			"sim-n", "sim-nnz", "sim-d", "sim-f", "sim-lab"}, cells))
	return rows, nil
}

func runFig2(o harness.Options) (any, error) {
	ms, err := harness.Fig2(o)
	if err != nil {
		return nil, err
	}
	harness.SortMeasurements(ms)
	fmt.Println("== Figure 2: epoch throughput of the 2D implementation ==")
	var cells [][]string
	for _, m := range ms {
		cells = append(cells, []string{
			m.Dataset, strconv.Itoa(m.P),
			harness.FormatFloat(m.EpochTime),
			harness.FormatFloat(m.Throughput()),
		})
	}
	fmt.Println(harness.Table([]string{"dataset", "P", "sec/epoch", "epochs/sec"}, cells))
	return ms, nil
}

func runFig3(o harness.Options) (any, error) {
	ms, err := harness.Fig3(o)
	if err != nil {
		return nil, err
	}
	harness.SortMeasurements(ms)
	fmt.Println("== Figure 3: per-epoch time breakdown of the 2D implementation ==")
	var cells [][]string
	for _, m := range ms {
		row := []string{m.Dataset, strconv.Itoa(m.P)}
		for _, cat := range comm.AllCategories {
			row = append(row, harness.FormatFloat(m.TimeByCat[cat]))
		}
		row = append(row, harness.FormatFloat(m.EpochTime))
		cells = append(cells, row)
	}
	header := []string{"dataset", "P"}
	for _, cat := range comm.AllCategories {
		header = append(header, string(cat))
	}
	header = append(header, "total")
	fmt.Println(harness.Table(header, cells))
	return ms, nil
}

func runPartition(o harness.Options) (any, error) {
	r, err := harness.PartitionExperiment(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== §IV-A-8: smart partitioner vs random block partitioning ==")
	fmt.Println(harness.Table(
		[]string{"dataset", "P", "metric", "random", "greedy", "reduction"},
		[][]string{
			{r.Dataset, strconv.Itoa(r.P), "total cut",
				strconv.Itoa(r.RandomTotalCut), strconv.Itoa(r.GreedyTotalCut),
				fmt.Sprintf("%.0f%%", 100*r.TotalReduction)},
			{r.Dataset, strconv.Itoa(r.P), "max cut",
				strconv.Itoa(r.RandomMaxCut), strconv.Itoa(r.GreedyMaxCut),
				fmt.Sprintf("%.0f%%", 100*r.MaxReduction)},
		}))
	fmt.Println("-- sparsity-aware 1D training on the same graph (dense words/epoch) --")
	fmt.Println(harness.Table(
		[]string{"exchange", "partition", "max words/rank", "total words"},
		[][]string{
			{"broadcast", "(any)",
				strconv.FormatInt(r.BroadcastMaxWords, 10), strconv.FormatInt(r.BroadcastTotalWords, 10)},
			{"halo", "random",
				strconv.FormatInt(r.RandomHaloMaxWords, 10), strconv.FormatInt(r.RandomHaloTotalWords, 10)},
			{"halo", "ldg-greedy",
				strconv.FormatInt(r.GreedyHaloMaxWords, 10), strconv.FormatInt(r.GreedyHaloTotalWords, 10)},
		}))
	fmt.Printf("halo greedy vs random: total words -%.0f%%, max words/rank -%.0f%%\n",
		100*r.HaloTotalReduction, 100*r.HaloMaxReduction)
	fmt.Printf("ledger matches costmodel.OneD edgecut bound exactly: %v\n", r.LedgerMatchesAnalytic)
	fmt.Println("paper (Metis on Reddit, P=64): total 72%, max 29% — bulk-synchronous")
	fmt.Println("runtime is bounded by the max, so smart partitioning underdelivers.")
	fmt.Println()
	return r, nil
}

func runCrossover(o harness.Options) (any, error) {
	rows, err := harness.Crossover(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== §VI-d: 1D vs 2D words per steady-state epoch (paper: crossover at √P ≥ 5; input layer and its row panels aggregated once: √P ≥ 5(2L−1)/(2(L−1))) ==")
	var cells [][]string
	for _, r := range rows {
		winner := "1d"
		if r.TwoDWords < r.OneDWords {
			winner = "2d"
		}
		cells = append(cells, []string{
			strconv.Itoa(r.P),
			strconv.FormatInt(r.OneDWords, 10), strconv.FormatInt(r.TwoDWords, 10),
			harness.FormatFloat(r.MeasuredRatio), harness.FormatFloat(r.AnalyticRatio),
			winner,
		})
	}
	fmt.Println(harness.Table(
		[]string{"P", "1d-words", "2d-words", "2d/1d", "5(2L-1)/(2(L-1)sqrtP)", "winner"}, cells))
	return rows, nil
}

func runAlgo3D(o harness.Options) (any, error) {
	rows, err := harness.Algo3D(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== §IV-D: algorithm family comparison at equal rank count ==")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Algorithm, strconv.Itoa(r.P),
			strconv.FormatInt(r.CommWords, 10),
			harness.FormatFloat(r.EpochTime),
			harness.FormatFloat(r.Replication),
			strconv.FormatInt(r.PeakMemWords, 10),
		})
	}
	fmt.Println(harness.Table(
		[]string{"algorithm", "P", "comm-words/epoch", "sec/epoch", "mem-replication", "peak-words/rank"}, cells))
	return rows, nil
}

func runOverlap(o harness.Options) (any, error) {
	rows, err := harness.OverlapExperiment(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== Communication/computation overlap: bulk-synchronous vs pipelined epoch time ==")
	var cells [][]string
	for _, r := range rows {
		name := r.Algorithm
		if r.Halo {
			name += "-halo"
		}
		cells = append(cells, []string{
			name, strconv.Itoa(r.P),
			harness.FormatFloat(r.BulkEpochTime),
			harness.FormatFloat(r.OverlapEpochTime),
			harness.FormatFloat(r.Speedup),
			harness.FormatFloat(r.HiddenCommTime),
			harness.FormatFloat(r.CommTime),
			harness.FormatFloat(r.ComputeTime),
		})
	}
	fmt.Println(harness.Table(
		[]string{"algorithm", "P", "bulk s/epoch", "overlap s/epoch", "speedup", "hidden-comm", "comm", "compute"}, cells))
	fmt.Println("word counts are identical between modes: overlap changes when panels")
	fmt.Println("arrive, never what is sent (outputs are bit-identical).")
	fmt.Println()
	return rows, nil
}

func runKernels(o harness.Options) (any, error) {
	rows, err := harness.KernelSweep(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== Kernels: wall-clock epoch time of the serial trainer per kernel path ==")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, r.Dataset, r.Precision,
			harness.FormatFloat(r.WallSecPerEpoch),
			harness.FormatFloat(r.Speedup),
		})
	}
	fmt.Println(harness.Table(
		[]string{"config", "dataset", "precision", "wall s/epoch", "speedup"}, cells))
	fmt.Println("speedups are measured against the f64-reference baseline (the scalar")
	fmt.Println("one-source kernels) in the same process; f64-default is bit-identical")
	fmt.Println("to it, f32 is tolerance-validated.")
	fmt.Println()
	return rows, nil
}

func runConvergence(o harness.Options) (any, error) {
	rows, err := harness.Convergence(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== §I: full-batch vs sampled mini-batch training ==")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Method, strconv.Itoa(r.Epochs),
			harness.FormatFloat(r.Accuracy), harness.FormatFloat(r.FinalLoss),
			strconv.Itoa(r.PeakVertices),
		})
	}
	fmt.Println(harness.Table(
		[]string{"method", "epochs", "accuracy", "final-loss", "peak-vertices/step"}, cells))
	return rows, nil
}

func runScaling(o harness.Options) (any, error) {
	rows, err := harness.Scaling(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("== §VI: scaling observations (measured vs paper) ==")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Claim, harness.FormatFloat(r.Measured), harness.FormatFloat(r.Paper),
		})
	}
	fmt.Println(harness.Table([]string{"claim", "measured", "paper"}, cells))
	return rows, nil
}
