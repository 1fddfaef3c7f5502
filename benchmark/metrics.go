package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The lists below are the benchmark's
// vocabulary; BENCHMARK.json repeats them and bench_test.go checks the two
// agree.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user training over P ranks pays for, all
// "lower is better"; the timings are on a host of nominal speed
// (hostspeed.go), the rest as measured.
var endToEnd = []metricDef{
	{"epoch_s", "s"},
	{"epoch_cpu_s", "CPU-s"},
	{"train_s", "s"},
	{"setup_s", "s"},
	{"comm_words_max", "words/epoch"},
	{"peak_rss_mb", "MiB"},
}

// bounds is the share of the first run's median by which each end-to-end
// metric may get worse before -compare says "worse"; BENCHMARK.json fixes
// the same numbers and bench_test.go checks the two agree. comm_words_max
// has none: it is an exact count that must repeat exactly, and it is 0 on
// serial_wide, so BENCHMARK.json (whose contract forbids a bounded metric
// that can be 0) lists it under per_layer.
var bounds = map[string]float64{
	"epoch_s":     0.25,
	"epoch_cpu_s": 0.25,
	"train_s":     0.25,
	"setup_s":     0.25,
	"peak_rss_mb": 0.15,
}

// timings are the end-to-end metrics that move with the host's speed.
var timings = map[string]bool{"epoch_s": true, "epoch_cpu_s": true, "train_s": true, "setup_s": true}

// exact reports whether m is compared exactly rather than against a bound.
func (m metricDef) exact() bool {
	_, bounded := bounds[m.name]
	return !bounded
}

// layerMetrics are the per-layer probes of the traced run, layer = module
// name. A metric that does not apply to a workload reads 0 there.
var layerMetrics = []metricDef{
	{"graph.build_s", "s"}, {"graph.vertices", "count"}, {"graph.nnz", "count"},
	{"partition.assign_s", "s"}, {"partition.edgecut_max", "count"}, {"partition.edgecut_total", "count"},
	{"sparse.normalize_s", "s"}, {"sparse.plan_build_s", "s"}, {"sparse.halo_plan_s", "s"},
	{"sparse.spmmt_plan_s", "s"}, {"sparse.spmm_s", "s"}, {"sparse.spmm_rowlist_s", "s"},
	{"sparse.flops_per_epoch", "flop"}, {"sparse.gflops", "Gflop/s"},
	{"dense.mul_s", "s"}, {"dense.tmul_s", "s"}, {"dense.mult_s", "s"}, {"dense.activation_s", "s"},
	{"dense.flops_per_epoch", "flop"},
	{"nn.loss_s", "s"}, {"nn.optimizer_step_s", "s"},
	{"parallel.dispatch_s", "s"},
	{"comm.mesh_setup_s", "s"}, {"comm.bcast_s", "s"}, {"comm.words_per_s", "words/s"},
	{"comm.rtt_s", "s"}, {"comm.allreduce_s", "s"}, {"comm.ibcast_hidden_frac", "ratio"},
	{"comm.exchange_indexed_s", "s"},
	{"comm.words_dcomm", "words/epoch"}, {"comm.words_scomm", "words/epoch"},
	{"comm.words_trpose", "words/epoch"}, {"comm.words_misc", "words/epoch"},
	{"comm.collectives_per_epoch", "count"}, {"comm.fitted_alpha_s", "s"}, {"comm.fitted_beta_s", "s/word"},
	{"core.epoch_serial_s", "s"}, {"core.epoch_inproc_s", "s"}, {"core.wire_share", "ratio"},
	{"core.dist_overhead_s", "s"}, {"core.engine_self_s", "s"},
	{"core.first_epoch_s", "s"}, {"core.epoch_skew_s", "s"},
	{"core.allocs_per_epoch", "count"}, {"core.alloc_bytes_per_epoch", "B"},
	{"checkpoint.save_s", "s"}, {"checkpoint.load_s", "s"}, {"checkpoint.bytes", "B"},
	{"costmodel.modeled_epoch_s", "s"}, {"costmodel.measured_over_modeled", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"host.factor", "ratio"},
}

// summary is a metric's distribution over its samples.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reports the median and quartiles of vals, with the quartiles
// Python's statistics.quantiles(vals, n=4) gives (the "exclusive" method),
// because that is what the driver's spread check uses.
func summarize(unit string, vals []float64) summary {
	s := summary{Unit: unit, N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	q := func(k int) float64 {
		if len(sorted) == 1 {
			return sorted[0]
		}
		pos := float64(k) * float64(len(sorted)+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, len(sorted)-1))
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	s.Q1, s.Median, s.Q3 = q(1), median(sorted), q(3)
	return s
}

// median of vals (any order); 0 when empty.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
