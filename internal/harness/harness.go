// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (§V-VI); cmd/cagnet-bench prints them:
//
//	Table VI  — dataset characteristics (paper scale vs simulated analogs)
//	Figure 2  — epoch throughput of the 2D implementation across GPU counts
//	Figure 3  — per-epoch time breakdown (misc, trpose, dcomm, scomm, spmm)
//	§IV-A-8   — smart-partitioner vs random edgecut (total vs max)
//	§VI-d     — 1D/2D crossover at √P ≥ 5
//	§IV-D     — every family's words, memory and bulk vs critical-path epoch
//	§VI-a/b/c — per-category scaling ratios
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/partition"
)

// Options configures experiment runs.
type Options struct {
	// Machine supplies α, β and compute rates; defaults to the Summit-like
	// profile.
	Machine costmodel.Machine
	// Quick shrinks datasets (for tests and smoke runs).
	Quick bool
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Machine.Name == "" {
		o.Machine = costmodel.SummitSim
	}
	return o
}

// dataset returns the analog spec, shrunk in Quick mode.
func (o Options) dataset(name string) (graph.AnalogSpec, error) {
	spec, err := graph.AnalogByName(name)
	if err != nil {
		return spec, err
	}
	if o.Quick {
		spec = spec.Quick()
	}
	return spec, nil
}

// problemFor builds the training problem (3-layer GCN, §V-A) for a dataset.
func problemFor(ds *graph.Dataset, epochs int) core.Problem {
	return core.Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: ds.LayerWidths(),
			LR:     0.01,
			Epochs: epochs,
			Seed:   1,
		},
	}
}

// EpochMeasurement is the cost of one (dataset, algorithm, P, halo)
// configuration, read off one 2-epoch run (MeasureEpoch) and split into the
// steady-state epoch and the part a run of any length pays exactly once:
// set-up, the input aggregation T¹ with 2D/3D's row-panel gather, 2D/3D's
// sparse row panels in both directions and 2D's transpose exchange (static
// operands cross the network once), the final forward pass and the output
// gather. The paper's epoch (§IV-C, Figure 3) charges the sparse panels and
// the transpose every epoch; here they are charged in the same categories at
// the same α–β cost, once, so the Once fields are where Figure 3's scomm and
// trpose bars are read from.
type EpochMeasurement struct {
	Dataset   string
	Algorithm string
	P         int
	// Halo marks the sparsity-aware 1D/1.5D exchange.
	Halo bool
	// TimeByCat is modeled seconds charged per steady-state epoch per
	// Figure 3 category (max across ranks). The categories carry their full
	// charges, so they sum to more than CriticalPathTime — the difference is
	// the communication hidden behind compute.
	TimeByCat map[comm.Category]float64
	// WordsByCat and MsgsByCat are modeled words and α-term messages per
	// steady-state epoch (max across ranks).
	WordsByCat map[comm.Category]int64
	MsgsByCat  map[comm.Category]int64
	// EpochTime is the bulk-synchronous modeled seconds per steady-state
	// epoch, comm.Reading.Bulk: every charge paid in turn.
	EpochTime float64
	// CriticalPathTime is the same run's timeline reading,
	// comm.Reading.Elapsed: the pipelined collectives (double-buffered SUMMA
	// panels, interior/frontier halo splits) hide behind compute, as the
	// paper's asynchronous collectives do (§V–VI).
	CriticalPathTime float64
	// HiddenCommTime is the per-epoch communication seconds hidden behind
	// compute (max across ranks).
	HiddenCommTime float64
	// OnceTimeByCat, OnceWordsByCat and OnceTime are TimeByCat, WordsByCat
	// and EpochTime for the once-per-run part.
	OnceTimeByCat  map[comm.Category]float64
	OnceWordsByCat map[comm.Category]int64
	OnceTime       float64
	// PeakMemWords is the run's per-rank peak resident footprint (max
	// across ranks); the second epoch does not raise it. For 2D and 3D it
	// includes the sparse row panels a rank holds for the whole run —
	// nnz/√P words per direction (one set, nnz/P^{2/3}, in 3D) where the
	// paper's layout has nnz/P: the memory the mesh spends so that A
	// crosses the network once (core/mesh.go).
	PeakMemWords int64
}

// Throughput returns steady-state epochs per modeled second.
func (m EpochMeasurement) Throughput() float64 {
	if m.EpochTime <= 0 {
		return 0
	}
	return 1 / m.EpochTime
}

// CommWords sums the steady-state epoch's communication categories.
func (m EpochMeasurement) CommWords() int64 {
	return m.WordsByCat[comm.CatDenseComm] + m.WordsByCat[comm.CatSparseComm] + m.WordsByCat[comm.CatTranspose]
}

// CommTime sums the steady-state epoch's charged communication seconds
// (dcomm+scomm+trpose). With ComputeTime it splits the charges; both are
// sums of per-category cross-rank maxima — a consistent aggregation that
// never goes negative, though on rank-imbalanced runs their sum can exceed
// EpochTime (which maxes per-rank sums). Overlap pushes the critical path
// toward the larger of the two.
func (m EpochMeasurement) CommTime() float64 {
	return m.TimeByCat[comm.CatDenseComm] + m.TimeByCat[comm.CatSparseComm] + m.TimeByCat[comm.CatTranspose]
}

// ComputeTime sums the steady-state epoch's charged compute seconds
// (spmm+misc).
func (m EpochMeasurement) ComputeTime() float64 {
	return m.TimeByCat[comm.CatSpMM] + m.TimeByCat[comm.CatMisc]
}

// Replication is the analytic intermediate-stage memory replication factor:
// P^{1/3} for 3D, the default c for 1.5D (2, or 1 at odd P), 1 otherwise.
func (m EpochMeasurement) Replication() float64 {
	switch {
	case m.Algorithm == "3d":
		return costmodel.ThreeDReplicationFactor(m.P)
	case m.Algorithm == "1.5d" && m.P%2 == 0:
		return 2
	}
	return 1
}

// MeasureEpoch trains algo on P ranks — over the sparsity-aware halo
// exchange if halo, which only the row decompositions (1d, 1.5d) take — for
// two epochs, and returns the steady-state epoch's and the once-per-run
// costs with every reading of the run's ledgers.
//
// The second epoch, which each ledger keeps (comm.Ledger.LastEpoch), is the
// steady-state one; each rank's run less it is what a 1-epoch run charges
// that rank. The figures are then the maxima over the ranks differenced as
// two runs would be: the epoch max(run(2)) − max(run(1)), the once-per-run
// part 2·max(run(1)) − max(run(2)).
func MeasureEpoch(ds *graph.Dataset, algo string, p int, halo bool, mach costmodel.Machine) (EpochMeasurement, error) {
	tr, err := core.NewTrainer(algo, p, mach)
	if err != nil {
		return EpochMeasurement{}, err
	}
	dt, ok := tr.(core.DistTrainer)
	if !ok {
		return EpochMeasurement{}, fmt.Errorf("harness: %q is not a distributed trainer", algo)
	}
	if _, err := core.ConfigureRowDecomposition(tr, nil, nil, "", halo, 0); err != nil {
		return EpochMeasurement{}, err
	}
	if _, err := tr.Train(problemFor(ds, 2)); err != nil {
		return EpochMeasurement{}, err
	}
	cl := dt.Cluster()
	two := cl.Max((*comm.Ledger).Reading)
	one := cl.Max(func(l *comm.Ledger) comm.Reading { return l.Reading().Sub(l.LastEpoch()) })
	epoch, once := two.Sub(one), one.Add(one).Sub(two)
	return EpochMeasurement{
		Dataset: ds.Name, Algorithm: algo, P: p, Halo: halo,
		TimeByCat: epoch.Time, WordsByCat: epoch.Words, MsgsByCat: epoch.Msgs,
		EpochTime: epoch.Bulk, CriticalPathTime: epoch.Elapsed, HiddenCommTime: epoch.Hidden,
		OnceTimeByCat: once.Time, OnceWordsByCat: once.Words, OnceTime: once.Bulk,
		PeakMemWords: two.PeakMemWords,
	}, nil
}

// Fig2Sweeps lists the paper's Figure 2 GPU counts per dataset. Amazon and
// Protein omit small counts because the data does not fit in device memory
// there (§V-C).
var Fig2Sweeps = map[string][]int{
	"reddit-sim":  {4, 16, 36, 64},
	"amazon-sim":  {16, 36, 64},
	"protein-sim": {36, 64, 100},
}

// Fig2Datasets is the display order of Figure 2/3 panels.
var Fig2Datasets = []string{"amazon-sim", "reddit-sim", "protein-sim"}

// Fig2 measures the 2D epoch across GPU counts for each dataset panel of
// Figure 2. Figure 3 (the per-category breakdown) and Scaling render the
// same measurements.
func Fig2(o Options) ([]EpochMeasurement, error) {
	o = o.WithDefaults()
	var out []EpochMeasurement
	for _, name := range Fig2Datasets {
		spec, err := o.dataset(name)
		if err != nil {
			return nil, err
		}
		ds := spec.Build()
		for _, p := range Fig2Sweeps[name] {
			m, err := MeasureEpoch(ds, "2d", p, false, o.Machine)
			if err != nil {
				return nil, fmt.Errorf("harness: fig2 %s P=%d: %w", name, p, err)
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// TableVIRow pairs a dataset analog with the paper-scale characteristics
// it models.
type TableVIRow struct {
	Name          string
	PaperVertices int
	PaperEdges    int64
	PaperFeatures int
	PaperLabels   int
	SimVertices   int
	SimEdges      int64
	SimAvgDegree  float64
	SimFeatures   int
	SimLabels     int
}

// TableVI builds every analog and reports paper-vs-simulated
// characteristics.
func TableVI(o Options) ([]TableVIRow, error) {
	o = o.WithDefaults()
	var out []TableVIRow
	for _, name := range Fig2Datasets {
		spec, err := o.dataset(name)
		if err != nil {
			return nil, err
		}
		ds := spec.Build()
		n, nnz := ds.Graph.NumVertices, ds.Graph.NNZ()
		out = append(out, TableVIRow{
			Name:          name,
			PaperVertices: spec.Paper.Vertices,
			PaperEdges:    spec.Paper.Edges,
			PaperFeatures: spec.Paper.Features,
			PaperLabels:   spec.Paper.Labels,
			SimVertices:   n,
			SimEdges:      int64(nnz),
			SimAvgDegree:  float64(nnz) / float64(n),
			SimFeatures:   ds.FeatureLen(),
			SimLabels:     ds.NumLabels,
		})
	}
	return out, nil
}

// PartitionResult reports the §IV-A-8 experiment: a smart partitioner vs
// random block partitioning at P parts — both the static edgecut metrics
// and the dense words an actual sparsity-aware 1D training run moves
// under each partition.
type PartitionResult struct {
	Dataset        string
	P              int
	RandomTotalCut int
	GreedyTotalCut int
	RandomMaxCut   int
	GreedyMaxCut   int
	// RandomRecvRows and GreedyRecvRows are Σᵢ rᵢ, the distinct remote rows
	// all parts together fetch per product (§IV-A-1) — what a halo epoch's
	// words are proportional to, in both directions.
	RandomRecvRows int
	GreedyRecvRows int
	// TotalReduction = 1 - greedy/random for total cut (paper: 72% for
	// Metis on Reddit at 64 parts).
	TotalReduction float64
	// MaxReduction is the same for the per-process maximum (paper: 29%) —
	// the number that actually bounds bulk-synchronous runtime.
	MaxReduction float64

	// Per-epoch dense-comm words of real 1D training runs, per-rank max
	// and summed over ranks: the dense-broadcast baseline (partition
	// independent), and the sparsity-aware halo exchange under each
	// partitioner.
	BroadcastMaxWords    int64
	BroadcastTotalWords  int64
	RandomHaloMaxWords   int64
	RandomHaloTotalWords int64
	GreedyHaloMaxWords   int64
	GreedyHaloTotalWords int64
	// HaloTotalReduction / HaloMaxReduction compare greedy vs random halo
	// words — §IV-A-8's asymmetry reproduced on a real trainer: total
	// volume drops far more than the per-rank max that bounds
	// bulk-synchronous runtime.
	HaloTotalReduction float64
	HaloMaxReduction   float64
	// LedgerMatchesAnalytic records whether every measured halo word
	// count equals the costmodel.OneDSymmetric edgecut-based prediction
	// exactly (per-rank max and total, via OneDHaloDenseWords over
	// partition.Edgecut's per-part recv rows).
	LedgerMatchesAnalytic bool
}

// PartitionExperiment reproduces §IV-A-8 with 64 parts on a
// community-structured Reddit surrogate. Plain R-MAT lacks the community
// structure that Metis exploits on the real Reddit graph, so this
// experiment uses CommunityRMAT: heavy-tailed degrees inside k communities
// plus random cross edges. Beyond the static edgecut comparison, it
// trains a real sparsity-aware 1D GCN under both partitions and checks
// the measured dense words against the analytic edgecut bound. Both of an
// epoch's aggregations fetch over the partition's cut, so the halo columns
// show the partitioner's effect on the whole epoch.
func PartitionExperiment(o Options) (PartitionResult, error) {
	o = o.WithDefaults()
	p := 64
	k, scalePer := 96, 6 // 96 communities of 64 vertices: communities ≠ parts
	if o.Quick {
		p, k = 16, 24
	}
	rng := rand.New(rand.NewSource(7))
	g := graph.CommunityRMAT(k, scalePer, 20, 3, rng)
	randomAssign := partition.RandomAssignment(g.NumVertices, p, rng)
	greedyAssign := partition.LDG(g, p, rng)
	random := partition.Edgecut(g, randomAssign)
	greedy := partition.Edgecut(g, greedyAssign)
	res := PartitionResult{
		Dataset: "reddit-community", P: p,
		RandomTotalCut: random.TotalCut, GreedyTotalCut: greedy.TotalCut,
		RandomMaxCut: random.MaxCut, GreedyMaxCut: greedy.MaxCut,
		RandomRecvRows: random.TotalRecvRows, GreedyRecvRows: greedy.TotalRecvRows,
		TotalReduction: 1 - float64(greedy.TotalCut)/float64(random.TotalCut),
		MaxReduction:   1 - float64(greedy.MaxCut)/float64(random.MaxCut),
	}

	// Train a real 1D GCN on the same graph for two epochs: the second
	// epoch's dense words, per-rank max and total.
	ds := graph.Synthetic(res.Dataset, g, 16, 16, 8, 9)
	widths := ds.LayerWidths()
	measure := func(assign *partition.Assignment, halo bool) (maxW, totalW int64, err error) {
		problem := problemFor(ds, 2)
		tr := core.NewOneD(p, o.Machine)
		tr.Halo = halo
		if assign != nil {
			relabeled, layout, _, err := core.PartitionProblem(problem, *assign)
			if err != nil {
				return 0, 0, err
			}
			problem, tr.Layout = relabeled, layout
		}
		if _, err := tr.Train(problem); err != nil {
			return 0, 0, err
		}
		cl := tr.Cluster()
		return cl.Max((*comm.Ledger).LastEpoch).Words[comm.CatDenseComm],
			cl.Sum((*comm.Ledger).LastEpoch).Words[comm.CatDenseComm], nil
	}
	var err error
	if res.BroadcastMaxWords, res.BroadcastTotalWords, err = measure(nil, false); err != nil {
		return res, err
	}
	if res.RandomHaloMaxWords, res.RandomHaloTotalWords, err = measure(&randomAssign, true); err != nil {
		return res, err
	}
	if res.GreedyHaloMaxWords, res.GreedyHaloTotalWords, err = measure(&greedyAssign, true); err != nil {
		return res, err
	}
	res.HaloTotalReduction = 1 - float64(res.GreedyHaloTotalWords)/float64(res.RandomHaloTotalWords)
	res.HaloMaxReduction = 1 - float64(res.GreedyHaloMaxWords)/float64(res.RandomHaloMaxWords)

	// The measured halo ledger must equal the costmodel edgecut-based
	// prediction exactly: per-epoch words of rank i are
	// OneDHaloDenseWords(widths, p, rᵢ, rᵢ, 1) − OneDHaloDenseWords(widths,
	// p, rᵢ, rᵢ, 0), with rᵢ from partition.Edgecut — the graph is
	// undirected, so one rᵢ serves both directions.
	perEpoch := func(recvRows int) int64 {
		return costmodel.OneDHaloDenseWords(widths, p, recvRows, recvRows, 1) -
			costmodel.OneDHaloDenseWords(widths, p, recvRows, recvRows, 0)
	}
	predict := func(stats partition.EdgecutStats) (maxW, totalW int64) {
		maxW = perEpoch(stats.MaxRecvRows)
		for _, r := range stats.PerPartRecvRows {
			totalW += perEpoch(r)
		}
		return maxW, totalW
	}
	randMax, randTotal := predict(random)
	greedyMax, greedyTotal := predict(greedy)
	res.LedgerMatchesAnalytic = res.RandomHaloMaxWords == randMax &&
		res.RandomHaloTotalWords == randTotal &&
		res.GreedyHaloMaxWords == greedyMax &&
		res.GreedyHaloTotalWords == greedyTotal
	return res, nil
}

// CrossoverRow compares per-epoch words for 1D and 2D at one rank count.
type CrossoverRow struct {
	P             int
	OneDWords     int64
	TwoDWords     int64
	MeasuredRatio float64 // 2D/1D
	// AnalyticRatio is the §IV-C-5 simplification for a steady-state
	// epoch, (8L−3)/(2(L−1)√P): costmodel.TwoDOverOneDSteadyWordRatio.
	AnalyticRatio float64
}

// Crossover sweeps rank counts on the amazon analog and reports where 2D
// overtakes the paper's broadcast 1D. The paper's §VI-d puts it at √P ≥ 5 with every layer paying
// both aggregations at its own widths; a steady-state epoch skips the input
// layer's, which is most of 1D's traffic on a wide-input dataset and less
// of 2D's, and aggregates every other layer at min(f^{l-1}, f^l), which
// pushes the crossover out; it also carries none of 2D's sparse panels —
// the mesh holds them after the first SUMMA of each direction — which pulls
// it back in: (8L−3)/2(L−1), √P ≥ 6.5 at L = 2.
func Crossover(o Options) ([]CrossoverRow, error) {
	o = o.WithDefaults()
	spec, err := o.dataset("amazon-sim")
	if err != nil {
		return nil, err
	}
	ds := spec.Build()
	sweeps := []int{4, 16, 36, 64, 100}
	if o.Quick {
		sweeps = []int{4, 16, 36}
	}
	var out []CrossoverRow
	for _, p := range sweeps {
		oneD, err := MeasureEpoch(ds, "1d", p, false, o.Machine)
		if err != nil {
			return nil, err
		}
		twoD, err := MeasureEpoch(ds, "2d", p, false, o.Machine)
		if err != nil {
			return nil, err
		}
		out = append(out, CrossoverRow{
			P:             p,
			OneDWords:     oneD.CommWords(),
			TwoDWords:     twoD.CommWords(),
			MeasuredRatio: float64(twoD.CommWords()) / float64(oneD.CommWords()),
			AnalyticRatio: costmodel.TwoDOverOneDSteadyWordRatio(len(ds.LayerWidths())-1, p),
		})
	}
	return out, nil
}

// Family measures every algorithm family, and the sparsity-aware halo
// variants of the row decompositions, on the protein analog at one rank
// count: §IV-D's words and memory, and the bulk-synchronous and critical-path
// readings of the same runs (§V–VI). 64 is simultaneously square (8²) and
// cube (4³), so every family runs at the same rank count.
func Family(o Options) ([]EpochMeasurement, error) {
	o = o.WithDefaults()
	spec, err := o.dataset("protein-sim")
	if err != nil {
		return nil, err
	}
	ds := spec.Build()
	var out []EpochMeasurement
	for _, cfg := range []struct {
		algo string
		halo bool
	}{{"1d", false}, {"1d", true}, {"1.5d", false}, {"1.5d", true}, {"2d", false}, {"3d", false}} {
		m, err := MeasureEpoch(ds, cfg.algo, 64, cfg.halo, o.Machine)
		if err != nil {
			return nil, fmt.Errorf("harness: family %s: %w", cfg.algo, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// ScalingRow captures one of the paper's §VI scaling observations.
type ScalingRow struct {
	Claim    string
	Measured float64
	Paper    float64
}

// Scaling extracts the §VI-a/b/c observations from Fig2's measurements
// (Figure 3 and these ratios are renderings of the same runs).
func Scaling(ms []EpochMeasurement) ([]ScalingRow, error) {
	at := func(dataset string, p int) (EpochMeasurement, bool) {
		for _, m := range ms {
			if m.Dataset == dataset && m.P == p {
				return m, true
			}
		}
		return EpochMeasurement{}, false
	}
	var out []ScalingRow
	if a16, ok1 := at("amazon-sim", 16); ok1 {
		if a64, ok2 := at("amazon-sim", 64); ok2 {
			out = append(out, ScalingRow{
				Claim:    "amazon: dcomm time ratio P=16/P=64 (paper ≈2x for 4x devices)",
				Measured: a16.TimeByCat[comm.CatDenseComm] / a64.TimeByCat[comm.CatDenseComm],
				Paper:    2.0,
			})
		}
	}
	if r4, ok1 := at("reddit-sim", 4); ok1 {
		if r64, ok2 := at("reddit-sim", 64); ok2 {
			out = append(out, ScalingRow{
				Claim:    "reddit: spmm time ratio P=4/P=64 (paper ≈5.23x)",
				Measured: r4.TimeByCat[comm.CatSpMM] / r64.TimeByCat[comm.CatSpMM],
				Paper:    5.23,
			})
		}
	}
	if p36, ok1 := at("protein-sim", 36); ok1 {
		if p100, ok2 := at("protein-sim", 100); ok2 {
			out = append(out, ScalingRow{
				Claim:    "protein: total comm time ratio P=36/P=100 (paper ≈1.65x)",
				Measured: p36.CommTime() / p100.CommTime(),
				Paper:    1.65,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no scaling observations available")
	}
	return out, nil
}

// Table renders rows of columns as an aligned text table with a header.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly for tables.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000 || math.Abs(v) < 0.001:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
