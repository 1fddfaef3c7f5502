// Command cagnet-bench regenerates the paper's modeled tables and figures
// on the simulated cluster. Each experiment prints an aligned text table
// mirroring the corresponding artifact in the paper; every number is a
// ledger count or an α–β modeled second, so stdout is a pure function of
// the flags. Wall-clock measurement lives in benchmark/.
//
//	cagnet-bench [-exp all|<name>] [-quick] [-machine summit-sim] [-workers n] [-json path]
//
// The experiments table below is the list of names; -h prints it. Each
// experiment measures its configurations one way, and every row carries
// every reading of its runs. With -json, the rows behind the text tables are
// additionally written to the given file as one JSON document.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/parallel"
)

// experiment is one row of the tool: its -exp name and the function that
// measures and prints it.
type experiment struct {
	name string
	run  func(*bench) (any, error)
}

// experiments is the whole tool, in -exp all order.
var experiments = []experiment{
	{"tableVI", (*bench).tableVI},
	{"fig2", (*bench).fig2},
	{"fig3", (*bench).fig3},
	{"partition", (*bench).partition},
	{"crossover", (*bench).crossover},
	{"family", (*bench).family},
	{"scaling", (*bench).scaling},
}

// names lists the -exp names of es, in order.
func names(es []experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

// selectExperiments resolves -exp: "all" or one name from the table.
func selectExperiments(exp string) ([]experiment, error) {
	if exp == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == exp {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want all, %s)", exp, strings.Join(names(experiments), ", "))
}

// bench is one invocation: its flags, where the tables go, and the 2D sweep
// that fig2, fig3 and scaling all render — trained by whichever of them
// runs first.
type bench struct {
	exp, machine, jsonPath string
	workers                int
	// opts carries -quick and the resolved -machine to every experiment.
	opts  harness.Options
	out   io.Writer
	sweep []harness.EpochMeasurement
}

// newFlagSet defines the tool's flags over b.
func newFlagSet(b *bench) *flag.FlagSet {
	fs := flag.NewFlagSet("cagnet-bench", flag.ContinueOnError)
	fs.StringVar(&b.exp, "exp", "all", "experiment: all, "+strings.Join(names(experiments), ", "))
	fs.BoolVar(&b.opts.Quick, "quick", false, "use reduced dataset sizes")
	fs.StringVar(&b.machine, "machine", costmodel.SummitSim.Name, "cost-model machine profile")
	fs.IntVar(&b.workers, "workers", 0, "kernel worker count (1 = single-threaded; 0 = runtime.NumCPU or $CAGNET_WORKERS)")
	fs.StringVar(&b.jsonPath, "json", "", "also write the structured results to this file as JSON")
	return fs
}

// benchSnapshot is the -json document: the options the run used plus one
// entry per executed experiment.
type benchSnapshot struct {
	Machine     string         `json:"machine"`
	Quick       bool           `json:"quick"`
	Experiments map[string]any `json:"experiments"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-bench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole tool: parse and validate args, run the selected
// experiments in table order printing to stdout, write the -json document.
func run(args []string, stdout io.Writer) error {
	b := &bench{out: stdout}
	fs := newFlagSet(b)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	selected, err := selectExperiments(b.exp)
	if err != nil {
		return err
	}
	if b.workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = runtime.NumCPU or $CAGNET_WORKERS), got %d", b.workers)
	}
	if b.opts.Machine, err = costmodel.ProfileByName(b.machine); err != nil {
		return err
	}
	if b.workers > 0 {
		parallel.SetWorkers(b.workers)
	}

	snapshot := benchSnapshot{Machine: b.opts.Machine.Name, Quick: b.opts.Quick, Experiments: map[string]any{}}
	for _, e := range selected {
		data, err := e.run(b)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		snapshot.Experiments[e.name] = data
	}
	if b.jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(b.jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", b.jsonPath)
	return nil
}

// sweep2D returns harness.Fig2's measurements in display order, training
// the sweep on first use.
func (b *bench) sweep2D() ([]harness.EpochMeasurement, error) {
	if b.sweep == nil {
		ms, err := harness.Fig2(b.opts)
		if err != nil {
			return nil, err
		}
		b.sweep = ms
	}
	return b.sweep, nil
}

// table prints one titled, aligned table.
func (b *bench) table(title string, header []string, cells [][]string) {
	fmt.Fprintln(b.out, title)
	fmt.Fprintln(b.out, harness.Table(header, cells))
}

func (b *bench) tableVI() (any, error) {
	rows, err := harness.TableVI(b.opts)
	if err != nil {
		return nil, err
	}
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
	b.table("== Table VI: datasets (paper scale vs simulated analog) ==",
		[]string{"dataset", "paper-n", "paper-nnz", "paper-f", "paper-lab",
			"sim-n", "sim-nnz", "sim-d", "sim-f", "sim-lab"}, cells)
	return rows, nil
}

func (b *bench) fig2() (any, error) {
	ms, err := b.sweep2D()
	if err != nil {
		return nil, err
	}
	var cells [][]string
	for _, m := range ms {
		cells = append(cells, []string{
			m.Dataset, strconv.Itoa(m.P),
			harness.FormatFloat(m.EpochTime),
			harness.FormatFloat(m.Throughput()),
		})
	}
	b.table("== Figure 2: epoch throughput of the 2D implementation ==",
		[]string{"dataset", "P", "sec/epoch", "epochs/sec"}, cells)
	return ms, nil
}

// fig3 prints the breakdown twice: the steady-state epoch, and what a run
// pays once. The mesh keeps its sparse row panels, so Figure 3's scomm bar —
// charged every epoch by Algorithm 2 — is in the second table, at the same
// α–β cost. Its trpose bar reads 0: the mesh transposes only when A ≠ Aᵀ,
// and every analog is symmetric. Algorithm 2's transpose stays in the
// analytic model (costmodel.TwoD).
func (b *bench) fig3() (any, error) {
	ms, err := b.sweep2D()
	if err != nil {
		return nil, err
	}
	header := []string{"dataset", "P"}
	for cat := range comm.NumCategories {
		header = append(header, cat.String())
	}
	header = append(header, "total")
	for _, part := range []struct {
		title string
		once  bool
	}{
		{"== Figure 3: per-epoch time breakdown of the 2D implementation (steady-state epoch) ==", false},
		{"-- once per run: T¹ and its row panels, the sparse row panels (scomm; one set, read by both SUMMA directions as A = Aᵀ), the final forward pass; trpose 0: the mesh transposes only when A ≠ Aᵀ (Algorithm 2's transpose stays in costmodel.TwoD) --", true},
	} {
		var cells [][]string
		for _, m := range ms {
			byCat, total := m.TimeByCat, m.EpochTime
			if part.once {
				byCat, total = m.OnceTimeByCat, m.OnceTime
			}
			row := []string{m.Dataset, strconv.Itoa(m.P)}
			for cat := range comm.NumCategories {
				row = append(row, harness.FormatFloat(byCat[cat]))
			}
			cells = append(cells, append(row, harness.FormatFloat(total)))
		}
		b.table(part.title, header, cells)
	}
	return ms, nil
}

func (b *bench) partition() (any, error) {
	r, err := harness.PartitionExperiment(b.opts)
	if err != nil {
		return nil, err
	}
	b.table("== §IV-A-8: smart partitioner vs random block partitioning ==",
		[]string{"dataset", "P", "metric", "random", "greedy", "reduction"},
		[][]string{
			{r.Dataset, strconv.Itoa(r.P), "total cut",
				strconv.Itoa(r.RandomTotalCut), strconv.Itoa(r.GreedyTotalCut),
				fmt.Sprintf("%.0f%%", 100*r.TotalReduction)},
			{r.Dataset, strconv.Itoa(r.P), "max cut",
				strconv.Itoa(r.RandomMaxCut), strconv.Itoa(r.GreedyMaxCut),
				fmt.Sprintf("%.0f%%", 100*r.MaxReduction)},
			{r.Dataset, strconv.Itoa(r.P), "recv rows",
				strconv.Itoa(r.RandomRecvRows), strconv.Itoa(r.GreedyRecvRows),
				fmt.Sprintf("%.0f%%", 100*(1-float64(r.GreedyRecvRows)/float64(r.RandomRecvRows)))},
		})
	b.table("-- sparsity-aware 1D training on the same graph (dense words/epoch) --",
		[]string{"exchange", "partition", "max words/rank", "total words"},
		[][]string{
			{"broadcast", "(any)",
				strconv.FormatInt(r.BroadcastMaxWords, 10), strconv.FormatInt(r.BroadcastTotalWords, 10)},
			{"halo", "random",
				strconv.FormatInt(r.RandomHaloMaxWords, 10), strconv.FormatInt(r.RandomHaloTotalWords, 10)},
			{"halo", "ldg-greedy",
				strconv.FormatInt(r.GreedyHaloMaxWords, 10), strconv.FormatInt(r.GreedyHaloTotalWords, 10)},
		})
	fmt.Fprintf(b.out, "halo greedy vs random: total words -%.0f%%, max words/rank -%.0f%%\n",
		100*r.HaloTotalReduction, 100*r.HaloMaxReduction)
	fmt.Fprintf(b.out, "ledger matches costmodel.OneDSymmetric edgecut bound exactly: %v\n", r.LedgerMatchesAnalytic)
	fmt.Fprint(b.out, `paper (Metis on Reddit, P=64): total 72%, max 29% — bulk-synchronous
runtime is bounded by the max, so smart partitioning underdelivers.

`)
	return r, nil
}

func (b *bench) crossover() (any, error) {
	rows, err := harness.Crossover(b.opts)
	if err != nil {
		return nil, err
	}
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
	b.table("== §VI-d: 1D vs 2D words per steady-state epoch (paper: crossover at √P ≥ 5; input layer aggregated once and sparse panels held: √P ≥ (8L−3)/(2(L−1))) ==",
		[]string{"P", "1d-words", "2d-words", "2d/1d", "(8L-3)/(2(L-1)sqrtP)", "winner"}, cells)
	return rows, nil
}

// family prints every configuration's two runs once: the words and memory
// §IV-D compares, and both readings of the epoch — bulk-synchronous and the
// critical path the pipelined collectives leave.
func (b *bench) family() (any, error) {
	ms, err := harness.Family(b.opts)
	if err != nil {
		return nil, err
	}
	var cells [][]string
	for _, m := range ms {
		name := m.Algorithm
		if m.Halo {
			name += "-halo"
		}
		cells = append(cells, []string{
			name, strconv.Itoa(m.P),
			strconv.FormatInt(m.CommWords(), 10),
			harness.FormatFloat(m.EpochTime),
			harness.FormatFloat(m.CriticalPathTime),
			harness.FormatFloat(m.EpochTime / m.CriticalPathTime),
			harness.FormatFloat(m.HiddenCommTime),
			harness.FormatFloat(m.CommTime()),
			harness.FormatFloat(m.ComputeTime()),
			harness.FormatFloat(m.Replication()),
			strconv.FormatInt(m.PeakMemWords, 10),
		})
	}
	b.table("== §IV-D, §V–VI: algorithm families at equal rank count, bulk-synchronous vs critical-path epoch ==",
		[]string{"algorithm", "P", "comm-words/epoch", "bulk s/epoch", "critical-path s/epoch", "speedup",
			"hidden-comm", "comm", "compute", "mem-replication", "peak-words/rank"}, cells)
	fmt.Fprint(b.out, `both times read one schedule's ledger: the critical path hides the
pipelined collectives behind compute, the words are the same.

`)
	return ms, nil
}

func (b *bench) scaling() (any, error) {
	ms, err := b.sweep2D()
	if err != nil {
		return nil, err
	}
	rows, err := harness.Scaling(ms)
	if err != nil {
		return nil, err
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Claim, harness.FormatFloat(r.Measured), harness.FormatFloat(r.Paper),
		})
	}
	b.table("== §VI: scaling observations (measured vs paper) ==",
		[]string{"claim", "measured", "paper"}, cells)
	return rows, nil
}
