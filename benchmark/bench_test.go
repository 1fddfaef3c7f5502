package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the whole of ../BENCHMARK.json as the test reads it.
type benchmarkJSON struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func quickPlan(t *testing.T) plan {
	return plan{
		seed: 11, workloads: workloads, epochs: quickEpochs,
		passes: 1, trace: true, quick: true, outDir: t.TempDir(),
	}
}

// TestQuickRunMatchesContract runs the whole benchmark in-process at tiny
// sizes and checks its vocabulary against BENCHMARK.json: every workload,
// end-to-end metric and layer metric named there is reported exactly once,
// by a well-formed name, with the unit the contract states; nothing else
// is reported; no op fails; the exact word count repeats; and the bounds
// and run length -compare and the full run use are the contract's.
func TestQuickRunMatchesContract(t *testing.T) {
	var contract benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != RunSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, RunSeconds %d", contract.RunSeconds, RunSeconds)
	}
	if len(contract.EndToEnd) != len(bounds) {
		t.Errorf("BENCHMARK.json bounds %d metrics, metrics.go %d", len(contract.EndToEnd), len(bounds))
	}
	for _, m := range contract.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("%s: BENCHMARK.json bound %v, metrics.go %v", m.Name, m.Bound, b)
		}
	}
	res, again := run(quickPlan(t)), run(quickPlan(t))
	if len(res.Workloads) != len(contract.Workloads) {
		t.Fatalf("reported %d workloads, BENCHMARK.json names %d", len(res.Workloads), len(contract.Workloads))
	}
	units := make(map[string]string)
	for _, m := range contract.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range contract.PerLayer {
		units[m.Name] = m.Unit
	}
	if len(units) != len(contract.EndToEnd)+len(contract.PerLayer) {
		t.Error("BENCHMARK.json names a metric twice")
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	var printed bytes.Buffer
	res.print(&printed)
	blocks := strings.Split(printed.String(), "workload ")[1:]

	for i, w := range res.Workloads {
		if w.Name != contract.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name, contract.Workloads[i].Name)
		}
		if w.OpsFailed != 0 || w.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, w.OpsFailed, w.OpsAttempted, w.Failures)
		}
		reported := make(map[string]string)
		for name, s := range w.EndToEnd {
			reported[name] = s.Unit
		}
		for name, v := range w.Layers {
			if _, twice := reported[name]; twice {
				t.Errorf("%s: %s is both an end-to-end and a layer metric", w.Name, name)
			}
			reported[name] = v.Unit
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v.Value)
			}
		}
		for name, unit := range units {
			if reported[name] != unit || unit == "" {
				t.Errorf("%s: %s reported with unit %q, BENCHMARK.json says %q", w.Name, name, reported[name], unit)
			}
			if n := strings.Count(blocks[i], "\n  "+name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, name, n)
			}
		}
		for name := range reported {
			if _, ok := units[name]; !ok {
				t.Errorf("%s: reports %s, which BENCHMARK.json does not name", w.Name, name)
			}
			if !wellFormed.MatchString(name) {
				t.Errorf("%s: metric name %q is malformed", w.Name, name)
			}
		}
		words, wordsAgain := w.EndToEnd["comm_words_max"].Median, again.Workloads[i].EndToEnd["comm_words_max"].Median
		if words != wordsAgain {
			t.Errorf("%s: comm_words_max is %v on one run and %v on the next", w.Name, words, wordsAgain)
		}
		if (words == 0) != (w.Name == "serial_wide") {
			t.Errorf("%s: comm_words_max = %v", w.Name, words)
		}
	}

	// The driver's line carries the bounded metrics untraced and the layer
	// metrics traced, and nothing else.
	for _, traced := range []bool{false, true} {
		line := res.driverLine(traced)
		want := len(contract.EndToEnd)
		if traced {
			want = len(contract.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("driver line (traced=%v) has %d metrics, want %d", traced, len(line.Metrics), want)
		}
		for name := range line.Metrics {
			if _, ok := units[name]; !ok {
				t.Errorf("driver line (traced=%v) carries unknown metric %s", traced, name)
			}
		}
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartiles to what
// statistics.quantiles(values, n=4) returns, the driver's own rule.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5}, 5, 5, 5},
	} {
		s := summarize("s", c.vals)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.vals) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.vals, s, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	loose := summary{Median: 1, Q1: 0.8, Q3: 1.2}
	for _, c := range []struct {
		a, b  summary
		bound float64
		exact bool
		want  string
	}{
		{tight(1), tight(1.05), 0.10, false, "same"},
		{tight(1), tight(1.2), 0.10, false, "worse"},
		{tight(1), tight(0.8), 0.10, false, "better"},
		{tight(1), loose, 0.10, false, "unresolved"},
		{tight(100), tight(100), 0, true, "same"},
		{tight(100), tight(101), 0, true, "worse"},
		{tight(0), tight(0), 0, true, "same"},
	} {
		if got := verdict(c.a, c.b, c.bound, c.exact); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.a.Median, c.b.Median, c.bound, got, c.want)
		}
	}
}

// TestCompareRefuses checks that -compare gives no verdict on two files
// that cannot be compared, and no timing verdict on a stolen run.
func TestCompareRefuses(t *testing.T) {
	file := func(mod func(*result)) string {
		w := &workloadResult{Name: "serial_wide", OpsAttempted: 3, EndToEnd: make(map[string]summary)}
		for _, m := range endToEnd {
			w.EndToEnd[m.name] = summary{Unit: m.unit, Median: 1, Q1: 0.99, Q3: 1.01, N: 9}
		}
		r := &result{Env: environment{Epochs: Epochs, Passes: Passes, RunSeconds: RunSeconds}, Workloads: []*workloadResult{w}}
		mod(r)
		path := filepath.Join(t.TempDir(), "result.json")
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := file(func(*result) {})
	slower := func(r *result) {
		s := r.Workloads[0].EndToEnd["epoch_s"]
		s.Median, s.Q1, s.Q3 = 2, 1.99, 2.01
		r.Workloads[0].EndToEnd["epoch_s"] = s
	}
	for name, mod := range map[string]func(*result){
		"quick":            func(r *result) { r.Env.Quick = true },
		"epochs":           func(r *result) { r.Env.Epochs = 3 },
		"failed op":        func(r *result) { r.Workloads[0].OpsFailed = 1 },
		"missing metric":   func(r *result) { delete(r.Workloads[0].EndToEnd, "train_s") },
		"missing workload": func(r *result) { r.Workloads = nil },
		"other workload":   func(r *result) { r.Workloads[0].Name = "halo1d_ldg" },
	} {
		for _, paths := range [][2]string{{good, file(mod)}, {file(mod), good}} {
			if _, err := compareFiles(io.Discard, paths[0], paths[1]); err == nil {
				t.Errorf("%s: compared without complaint", name)
			}
		}
	}
	if worse, err := compareFiles(io.Discard, good, good); worse || err != nil {
		t.Errorf("a file against itself: worse %v, err %v", worse, err)
	}
	if worse, err := compareFiles(io.Discard, good, file(slower)); !worse || err != nil {
		t.Errorf("epoch_s doubled: worse %v, err %v", worse, err)
	}
	stolen := file(func(r *result) { slower(r); r.Env.StealFrac = 2 * stealLimit })
	if worse, err := compareFiles(io.Discard, good, stolen); worse || err != nil {
		t.Errorf("epoch_s doubled on a stolen run: worse %v, err %v", worse, err)
	}
}
