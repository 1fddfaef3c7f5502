// Command benchmark is the repository's wall-clock benchmark: four
// training workloads timed end to end from outside, through the public
// entry points only, plus a traced pass that probes each layer on the
// workload's own operands. README.md in this directory defines every
// metric and says why each workload is here; BENCHMARK.json at the
// repository root is the contract a later change is held to.
//
//	go run ./benchmark -seed 11 -out benchmark/out/result.json   # everything
//	go run ./benchmark -compare a.json b.json                    # two result files
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1 # the driver's form: one workload, one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// childEnv marks a process as one pass of one workload, started by the
// orchestrator with its own arguments plus -workload; its value is "pass"
// or "traced". It is not a flag, so a user cannot change the run shape
// with it.
const childEnv = "CAGNET_BENCHMARK_CHILD"

func main() {
	seed := flag.Int64("seed", 11, "seeds dataset synthesis and weight initialisation")
	out := flag.String("out", "benchmark/out/result.json", "result file; traces are written beside it")
	trace := flag.Int("trace", 1, "1 adds the traced pass with the per-layer probes, 0 leaves it out")
	quick := flag.Bool("quick", false, "tiny sizes, one pass, no child processes: checks the plumbing, not the speed")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
	only := flag.String("workload", "", "the driver's form: run this workload alone and print one JSON line of metrics last")
	seconds := flag.Int("seconds", RunSeconds, "with -workload: how long the warm repetitions measure")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	pl := plan{
		seed: *seed, workloads: workloads, epochs: Epochs, passes: Passes,
		seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: filepath.Dir(*out),
	}
	if *quick {
		pl.epochs, pl.passes, pl.seconds = quickEpochs, 1, 0
	}
	switch {
	case *only != "":
		w, err := workloadByName(*only)
		if err != nil {
			fatal(err)
		}
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
		}
		pl.workloads = []workload{w}
	case *seconds != RunSeconds:
		fatal(fmt.Errorf("-seconds is the driver's, with -workload; a full run always measures %d s per workload", RunSeconds))
	}

	if kind := os.Getenv(childEnv); kind != "" {
		if *only == "" {
			fatal(fmt.Errorf("%s is set without -workload", childEnv))
		}
		p, err := childPass(pl, pl.workloads[0], kind == "traced")
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fatal(err)
		}
		return
	}

	res := run(pl)
	res.print(os.Stdout)
	if err := res.write(*out); err != nil {
		fatal(err)
	}
	if *only != "" {
		if err := json.NewEncoder(os.Stdout).Encode(res.driverLine(pl.trace)); err != nil {
			fatal(err)
		}
	}
	if res.failed() > 0 {
		fmt.Fprintf(os.Stderr, "%d ops failed\n", res.failed())
		os.Exit(1)
	}
}

// reading is one metric of the driver's line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of a -workload run.
type driverResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// driverLine carries what BENCHMARK.json lists under end_to_end for an
// untraced run (the bounded metrics) and under per_layer for a traced one
// (the layer metrics and the exact word count).
func (r *result) driverLine(traced bool) driverResult {
	w := r.Workloads[0]
	metrics := make(map[string]reading)
	if traced {
		for name, v := range w.Layers {
			metrics[name] = reading(v)
		}
	}
	for _, m := range endToEnd {
		if m.exact() == traced {
			metrics[m.name] = reading{w.EndToEnd[m.name].Median, m.unit}
		}
	}
	return driverResult{Correct: w.OpsFailed == 0, Attempted: w.OpsAttempted, Failed: w.OpsFailed, Metrics: metrics}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
