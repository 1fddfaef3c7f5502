package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	cagnet "repro"
)

// childDeadline bounds one child process; a child that overruns it is one
// failed op.
const childDeadline = 150 * time.Second

// stealLimit is the share of a run's CPU ticks the hypervisor may give to
// someone else before the run's timings stop being trusted.
const stealLimit = 0.02

// plan is the shape of one invocation.
type plan struct {
	seed      int64
	workloads []workload
	epochs    int
	passes    int    // untraced passes over the workloads
	seconds   int    // warm measuring time per workload, shared by its passes
	trace     bool   // one more, traced, pass
	quick     bool   // tiny sizes, one repetition, passes run in this process
	outDir    string // traces and scratch files
}

// budget is one pass's share of the measuring time.
func (pl plan) budget() time.Duration {
	return time.Duration(pl.seconds) * time.Second / time.Duration(pl.passes)
}

// minReps is the least number of warm repetitions a pass makes.
func (pl plan) minReps(traced bool) int {
	switch {
	case pl.quick:
		return 1
	case traced:
		return TracedMinReps
	}
	return MinReps
}

// environment is recorded in every result file, so two files can be told
// apart before their numbers are compared.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	Seed         int64   `json:"seed"`
	Epochs       int     `json:"epochs"`
	Passes       int     `json:"passes"`
	RunSeconds   int     `json:"run_seconds"`
	Quick        bool    `json:"quick"`
	LoadavgStart string  `json:"loadavg_start"`
	LoadavgEnd   string  `json:"loadavg_end"`
	StealFrac    float64 `json:"steal_frac"` // share of the run's CPU ticks the hypervisor gave to someone else
	WallS        float64 `json:"wall_s"`
}

// layerValue is one per-layer probe reading.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name     string             `json:"name"`
	Vertices int                `json:"vertices"`
	NNZ      int                `json:"nnz"`
	Samples  int                `json:"samples"`
	EndToEnd map[string]summary `json:"end_to_end"`
	// AsMeasured are the timings before the division by HostFactor, so a
	// reader can undo it; Sweeps is how many sweeps the factor rests on.
	AsMeasured   map[string]summary    `json:"as_measured"`
	HostFactor   float64               `json:"host_factor"`
	Sweeps       int                   `json:"sweeps"`
	Layers       map[string]layerValue `json:"layers,omitempty"`
	OpsAttempted int                   `json:"ops_attempted"`
	OpsFailed    int                   `json:"ops_failed"`
	Failures     []string              `json:"failures,omitempty"`
}

// result is the file -out names.
type result struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *result) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}

// collector gathers one workload's passes and checks them against each
// other and against the serial reference.
type collector struct {
	w      workload
	ref    []float64
	passes []*passResult
	traced *passResult
	res    *workloadResult
}

func (c *collector) fail(format string, args ...any) {
	c.res.OpsFailed++
	c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
}

// reference trains the serial trainer once on the workload's dataset and
// seed; every pass's losses must come out within 1e-9 of it.
func (c *collector) reference(pl plan) {
	c.res.OpsAttempted++
	ds := c.w.build(pl.seed, pl.quick)
	rep, err := cagnet.Train(ds, cagnet.TrainOptions{Algorithm: "serial", Epochs: pl.epochs, Seed: pl.seed})
	if err != nil {
		c.fail("serial reference: %v", err)
		return
	}
	c.ref = rep.Losses
}

// add folds one pass in. err is a child that died, timed out or printed
// no result: one failed op.
func (c *collector) add(p *passResult, err error, traced bool) {
	if err != nil {
		c.res.OpsAttempted++
		c.fail("pass: %v", err)
		return
	}
	c.res.OpsAttempted += p.OpsAttempted
	c.res.OpsFailed += p.OpsFailed
	c.res.Failures = append(c.res.Failures, p.Failures...)
	c.res.Vertices, c.res.NNZ = p.Vertices, p.NNZ
	switch {
	case c.ref == nil || len(p.Losses) == 0:
		// Already counted: the reference or every warm Train failed.
	case !closeTo(p.Losses, c.ref, 1e-9):
		c.fail("losses are not within 1e-9 of the serial reference")
	case len(c.passes) > 0 && !bitIdentical(p.Losses, c.passes[0].Losses):
		c.fail("losses differ from the first pass")
	}
	if traced {
		c.traced = p
	} else {
		c.passes = append(c.passes, p)
	}
}

// finish turns the passes into the workload's reported numbers: the
// end-to-end metrics from the untraced passes, their timings divided by the
// run's host factor, and the layers from the traced pass, as measured.
func (c *collector) finish() {
	samples, raw := make(map[string][]float64), make(map[string][]float64)
	c.res.HostFactor = hostFactor(c.passes...)
	for _, p := range c.passes {
		c.res.Sweeps += len(p.SweepS)
		for name, vals := range map[string][]float64{
			"epoch_s": p.EpochS, "epoch_cpu_s": p.EpochCPUS, "train_s": p.TrainS, "setup_s": {p.SetupS},
		} {
			for _, v := range vals {
				raw[name] = append(raw[name], v)
				samples[name] = append(samples[name], v/c.res.HostFactor)
			}
		}
		samples["comm_words_max"] = append(samples["comm_words_max"], p.WordsMax)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], p.PeakRSSMB)
		if p.WordsMax != c.passes[0].WordsMax {
			c.fail("comm_words_max %v differs from the first pass's %v", p.WordsMax, c.passes[0].WordsMax)
		}
	}
	c.res.Samples = len(samples["epoch_s"])
	c.res.EndToEnd = make(map[string]summary)
	c.res.AsMeasured = make(map[string]summary)
	for _, m := range endToEnd {
		c.res.EndToEnd[m.name] = summarize(m.unit, samples[m.name])
		if timings[m.name] {
			c.res.AsMeasured[m.name] = summarize(m.unit, raw[m.name])
		}
	}
	if c.traced == nil {
		return
	}
	c.res.Layers = make(map[string]layerValue)
	for _, m := range layerMetrics {
		c.res.Layers[m.name] = layerValue{Value: c.traced.Layers[m.name], Unit: m.unit}
	}
}

// runPass runs one pass of w: in this process under -quick, else in a
// fresh child, so every pass pays its own cold start.
func runPass(pl plan, w workload, traced bool) (*passResult, error) {
	if pl.quick {
		return childPass(pl, w, traced)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	kind, traceArg := "pass", "0"
	if traced {
		kind, traceArg = "traced", "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(pl.seed, 10),
		"-seconds", strconv.Itoa(pl.seconds),
		"-trace", traceArg,
		"-out", filepath.Join(pl.outDir, "result.json"),
	)
	cmd.Env = append(os.Environ(), childEnv+"="+kind)
	cmd.Stderr = os.Stderr
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dieWithParent(cmd)
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("child %s exceeded its %v deadline", w.name, childDeadline)
	}
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	p := new(passResult)
	if err := json.Unmarshal(lines[len(lines)-1], p); err != nil {
		return nil, fmt.Errorf("child %s printed no result: %w", w.name, err)
	}
	return p, nil
}

// childPass is the body of a pass, whichever process it runs in. A traced
// pass also writes its spans beside the result file.
func childPass(pl plan, w workload, traced bool) (*passResult, error) {
	if !traced {
		return measure(pl, w), nil
	}
	if err := os.MkdirAll(pl.outDir, 0o755); err != nil {
		return nil, err
	}
	p, rec := tracedPass(pl, w)
	if err := rec.writeChrome(filepath.Join(pl.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return p, nil
}

// run executes the plan: the references, the untraced passes interleaved
// over the workloads (so a noisy minute on a shared host cannot land on
// one workload), then the traced pass.
func run(pl plan) *result {
	start := time.Now()
	res := &result{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), Seed: pl.seed, Epochs: pl.epochs, Passes: pl.passes, RunSeconds: pl.seconds, Quick: pl.quick,
		LoadavgStart: loadavg(),
	}}
	stealStart, ticksStart := cpuTicks()
	if load, err := strconv.ParseFloat(firstField(res.Env.LoadavgStart), 64); err == nil && load > float64(res.Env.NProc) {
		fmt.Fprintf(os.Stderr, "warning: 1-minute load average %.2f exceeds nproc %d; timings will be noisy\n", load, res.Env.NProc)
	}
	cols := make([]*collector, len(pl.workloads))
	for i, w := range pl.workloads {
		cols[i] = &collector{w: w, res: &workloadResult{Name: w.name}}
		res.Workloads = append(res.Workloads, cols[i].res)
		cols[i].reference(pl)
	}
	for pass := 0; pass < pl.passes; pass++ {
		for _, c := range cols {
			p, err := runPass(pl, c.w, false)
			c.add(p, err, false)
		}
	}
	if pl.trace {
		for _, c := range cols {
			p, err := runPass(pl, c.w, true)
			c.add(p, err, true)
		}
	}
	for _, c := range cols {
		c.finish()
	}
	res.Env.LoadavgEnd = loadavg()
	if steal, ticks := cpuTicks(); ticks > ticksStart {
		res.Env.StealFrac = (steal - stealStart) / (ticks - ticksStart)
	}
	if res.Env.StealFrac > stealLimit {
		fmt.Fprintf(os.Stderr, "warning: the hypervisor stole %.1f%% of this run's CPU time; -compare will call its timings unresolved\n", 100*res.Env.StealFrac)
	}
	res.Env.WallS = time.Since(start).Seconds()
	return res
}

// print lists every metric of every workload by name, with its unit.
func (r *result) print(out io.Writer) {
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "workload %s  (%d vertices, %d nnz, %d samples)\n", w.Name, w.Vertices, w.NNZ, w.Samples)
		for _, m := range endToEnd {
			s := w.EndToEnd[m.name]
			fmt.Fprintf(out, "  %-34s %14.6g %-12s q1 %.6g  q3 %.6g  n %d", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			if timings[m.name] {
				fmt.Fprintf(out, "  (as measured %.6g)", w.AsMeasured[m.name].Median)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-12s n %d\n", "host_factor", w.HostFactor, "ratio", w.Sweeps)
		for _, m := range layerMetrics {
			if v, ok := w.Layers[m.name]; ok {
				fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
		fmt.Fprintf(out, "  %-34s %14d\n  %-34s %14d\n", "ops_attempted", w.OpsAttempted, "ops_failed", w.OpsFailed)
		for _, f := range w.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
	}
}

func (r *result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git checkout;
// git does not look above the working directory for one.
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// loadavg is /proc/loadavg's line, or "" where there is none.
func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// cpuTicks reads the aggregate line of /proc/stat: the steal column and the
// sum of all columns; zeros where there is none.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return ""
}
