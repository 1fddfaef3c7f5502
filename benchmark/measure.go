package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	cagnet "repro"
	"repro/internal/graph"
)

// passResult is what one pass over one workload reports: one fresh child
// process in a full run, one function call under -quick.
type passResult struct {
	Workload string `json:"workload"`
	// One entry per warm {Train(1), Train(E)} repetition, as measured; the
	// orchestrator divides them by the run's host factor.
	EpochS    []float64 `json:"epoch_s"`
	EpochCPUS []float64 `json:"epoch_cpu_s"`
	TrainS    []float64 `json:"train_s"`
	// SetupS is dataset synthesis + the cold Train(1) − the pass's median
	// epoch_s; SynthS and ColdS are its two parts.
	SetupS float64 `json:"setup_s"`
	SynthS float64 `json:"synth_s"`
	ColdS  float64 `json:"cold_s"`
	// WordsMax is the per-rank maximum words moved per epoch, summed over
	// the Figure-3 categories; ByCategory splits it.
	WordsMax        float64            `json:"comm_words_max"`
	WordsByCategory map[string]float64 `json:"words_by_category,omitempty"`
	PeakRSSMB       float64            `json:"peak_rss_mb"`
	// Losses are the E per-epoch losses of the warm Train(E), identical on
	// every repetition (a difference is a failed op).
	Losses []float64 `json:"losses"`
	// Vertices and NNZ describe the synthesized graph.
	Vertices int `json:"vertices"`
	NNZ      int `json:"nnz"`

	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`

	// Layers holds the per-layer probes of a traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`

	// SweepS are the pass's host sweeps, one before every Train call and
	// one at the end, in seconds, and SweepNominalS what one takes at
	// nominal speed (hostspeed.go).
	SweepS        []float64 `json:"sweep_s"`
	SweepNominalS float64   `json:"sweep_nominal_s"`
	host          *hostSweep
}

// hostFactor is how much slower than nominal the host ran over the passes'
// sweeps; 1 where there are none.
func hostFactor(passes ...*passResult) float64 {
	var sweeps []float64
	for _, p := range passes {
		sweeps = append(sweeps, p.SweepS...)
	}
	if len(sweeps) == 0 {
		return 1
	}
	return median(sweeps) / passes[0].SweepNominalS
}

// fail counts one failed op and keeps its reason.
func (p *passResult) fail(format string, args ...any) {
	p.OpsFailed++
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

// timedTrain is one cagnet.Train call with its wall and CPU cost.
type timedTrain struct {
	report *cagnet.TrainReport
	wall   float64
	cpu    float64
}

// train runs one Train call as one op of p. A failed call returns nil.
// The call starts from a collected heap, as it would in a process of its
// own (testing.B does the same before each run): the garbage of the
// previous call is the benchmark's, and where the collector happens to be
// when the next call peaks would otherwise decide the resident high-water
// mark.
func (p *passResult) train(ds *graph.Dataset, o cagnet.TrainOptions) *timedTrain {
	p.OpsAttempted++
	p.host.sweep()
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	rep, err := cagnet.Train(ds, o)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	if err != nil {
		p.fail("Train(%s, %d epochs): %v", o.Algorithm, o.Epochs, err)
		return nil
	}
	if len(rep.Losses) != o.Epochs {
		p.fail("Train(%s, %d epochs) returned %d losses", o.Algorithm, o.Epochs, len(rep.Losses))
		return nil
	}
	for i, l := range rep.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			p.fail("Train(%s, %d epochs): loss[%d] = %v", o.Algorithm, o.Epochs, i, l)
			return nil
		}
	}
	return &timedTrain{report: rep, wall: wall, cpu: cpu}
}

// pair is one warm repetition: Train(1) then Train(E). The differences
// over E−1 are one epoch's steady-state cost, free of everything a Train
// call does once (normalisation, partitioning, plans, mesh, final forward
// pass and output gather).
type pair struct {
	one, full *timedTrain
	epochs    int
}

func (q pair) epochS() float64   { return (q.full.wall - q.one.wall) / float64(q.epochs-1) }
func (q pair) epochCPU() float64 { return (q.full.cpu - q.one.cpu) / float64(q.epochs-1) }

// wordsPerEpoch differences the per-rank maximum word counts the same way,
// so the words of set-up and of the final forward pass cancel.
func (q pair) wordsPerEpoch() map[string]float64 {
	out := make(map[string]float64)
	for cat, words := range q.full.report.WordsByCategory {
		out[cat] = float64(words-q.one.report.WordsByCategory[cat]) / float64(q.epochs-1)
	}
	return out
}

// warmPair runs one repetition as two ops; nil when either call failed.
func (p *passResult) warmPair(w workload, ds *graph.Dataset, seed int64, epochs int, mod func(*cagnet.TrainOptions)) *pair {
	o1, oE := w.trainOpts(seed, 1), w.trainOpts(seed, epochs)
	if mod != nil {
		mod(&o1)
		mod(&oE)
	}
	one := p.train(ds, o1)
	full := p.train(ds, oE)
	if one == nil || full == nil {
		return nil
	}
	return &pair{one: one, full: full, epochs: epochs}
}

// record folds one untraced warm repetition into the pass. Every
// repetition must reproduce the previous one's losses bit for bit.
func (p *passResult) record(q *pair) {
	p.EpochS = append(p.EpochS, q.epochS())
	p.EpochCPUS = append(p.EpochCPUS, q.epochCPU())
	p.TrainS = append(p.TrainS, q.full.wall)
	losses := q.full.report.Losses
	if p.Losses != nil && !bitIdentical(p.Losses, losses) {
		p.fail("repetition %d: losses differ from the previous repetition", len(p.EpochS))
	}
	p.Losses = losses
	if p.WordsByCategory == nil {
		p.WordsByCategory = q.wordsPerEpoch()
		for _, v := range p.WordsByCategory {
			p.WordsMax += v
		}
	}
}

// finish fills in what the pass knows only at its end.
func (p *passResult) finish() {
	p.host.sweep()
	p.SweepS, p.SweepNominalS = p.host.sweeps, p.host.nominal
	p.SetupS = p.SynthS + p.ColdS - median(p.EpochS)
	p.PeakRSSMB = peakRSSMiB()
}

// repeat calls rep until it has run minReps times and the budget is used,
// or rep reports a failure (already a failed op; repeating it proves
// nothing). A repetition starts only while at least half of it still fits
// the budget.
func repeat(minReps int, budget time.Duration, rep func() bool) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minReps || time.Since(start)+last/2 < budget; n++ {
		repStart := time.Now()
		if !rep() {
			return
		}
		last = time.Since(repStart)
	}
}

// measure is the untraced pass: synthesize, one cold Train(1), then warm
// repetitions until the plan's count and budget are met.
func measure(pl plan, w workload) *passResult {
	p := &passResult{Workload: w.name, host: newHostSweep(pl.quick)}
	p.host.sweep()
	start := time.Now()
	ds := w.build(pl.seed, pl.quick)
	p.SynthS = time.Since(start).Seconds()
	p.Vertices = ds.Graph.NumVertices
	p.NNZ = ds.Graph.Adjacency().NNZ()

	if cold := p.train(ds, w.trainOpts(pl.seed, 1)); cold != nil {
		p.ColdS = cold.wall
	}
	repeat(pl.minReps(false), pl.budget(), func() bool {
		q := p.warmPair(w, ds, pl.seed, pl.epochs, nil)
		if q != nil {
			p.record(q)
		}
		return q != nil
	})
	p.finish()
	return p
}

// bitIdentical reports whether a and b hold the same float64 bit patterns.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// closeTo reports whether every got[i] is within rel of want[i].
func closeTo(got, want []float64, rel float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > rel*math.Abs(want[i]) {
			return false
		}
	}
	return true
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM); 0 where
// /proc is not available.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
