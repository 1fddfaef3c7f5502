package cagnet

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/tolerance"
)

func TestDatasetByName(t *testing.T) {
	ds, err := DatasetByName("reddit-sim")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumVertices == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDatasetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dataset("nope")
}

func TestRandomDataset(t *testing.T) {
	ds := RandomDataset(8, 6, 10, 5, 4, 42)
	if ds.Graph.NumVertices != 256 || ds.FeatureLen() != 10 || ds.NumLabels != 4 {
		t.Fatalf("dataset malformed: %+v", ds)
	}
	// Deterministic.
	ds2 := RandomDataset(8, 6, 10, 5, 4, 42)
	if ds2.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("RandomDataset not deterministic")
	}
}

func TestTrainSerialAndDistributedAgree(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 7)
	serial, err := Train(ds, TrainOptions{Algorithm: "serial", Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Train(ds, TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Losses) != 4 || len(dist.Losses) != 4 {
		t.Fatal("wrong epoch counts")
	}
	for i := range serial.Losses {
		if math.Abs(serial.Losses[i]-dist.Losses[i]) > 1e-8 {
			t.Fatalf("epoch %d: serial %v vs 2d %v", i, serial.Losses[i], dist.Losses[i])
		}
	}
	if serial.ModeledSeconds != 0 {
		t.Fatal("serial should not report modeled time")
	}
	if dist.ModeledSeconds <= 0 || dist.TimeByCategory["spmm"] <= 0 {
		t.Fatalf("distributed report missing cost data: %+v", dist)
	}
	if dist.WordsByCategory["dcomm"] <= 0 {
		t.Fatal("distributed report missing word counts")
	}
	if dist.Result() == nil || dist.Result().Output == nil {
		t.Fatal("missing underlying result")
	}
}

func TestTrainAllAlgorithms(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 8)
	ranks := map[string]int{"serial": 1, "1d": 4, "1.5d": 4, "2d": 4, "3d": 8}
	var first []float64
	for _, algo := range Algorithms {
		rep, err := Train(ds, TrainOptions{Algorithm: algo, Ranks: ranks[algo], Epochs: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if first == nil {
			first = rep.Losses
			continue
		}
		for i := range first {
			if math.Abs(first[i]-rep.Losses[i]) > 1e-8 {
				t.Fatalf("%s disagrees with serial at epoch %d: %v vs %v",
					algo, i, rep.Losses[i], first[i])
			}
		}
	}
}

// TestTrainOptionValidation: every option Train rejects is rejected before
// any rank starts (so never with a "tcp rank" prefix), and the error names
// the option. TestTrainHaloOptionValidation has the halo/partitioner ones.
func TestTrainOptionValidation(t *testing.T) {
	ds := RandomDataset(6, 4, 6, 4, 3, 9)
	cases := []struct {
		name string
		opts TrainOptions
		want string
	}{
		{"unknown algorithm", TrainOptions{Algorithm: "9d", Ranks: 4}, "9d"},
		{"2d non-square", TrainOptions{Algorithm: "2d", Ranks: 5}, "perfect-square"},
		// Over tcp the rejection comes from where the trainer is built,
		// before any socket or clone exists.
		{"3d non-cube over tcp", TrainOptions{Algorithm: "3d", Ranks: 9, Transport: "tcp"}, "perfect-cube"},
		{"unknown machine", TrainOptions{Machine: "cray", Ranks: 1}, "machine profile"},
		// A negative rank count used to panic in comm.NewCluster.
		{"1d negative ranks", TrainOptions{Algorithm: "1d", Ranks: -2}, "1d"},
		{"1.5d negative ranks", TrainOptions{Algorithm: "1.5d", Ranks: -2}, "1.5d"},
		{"2d negative ranks", TrainOptions{Algorithm: "2d", Ranks: -2}, "2d"},
		{"3d negative ranks", TrainOptions{Algorithm: "3d", Ranks: -2}, "3d"},
		{"unknown optimizer", TrainOptions{Optimizer: "adagrad", Ranks: 1}, "optimizer"},
		{"1.5d c not dividing ranks", TrainOptions{Algorithm: "1.5d", Ranks: 6, ReplicationFactor: 4}, "replication factor"},
		{"replication on 2d", TrainOptions{Algorithm: "2d", Ranks: 4, ReplicationFactor: 2}, "replication factor"},
		{"serial negative replication", TrainOptions{Algorithm: "serial", ReplicationFactor: -1}, "replication factor"},
		{"1d negative replication", TrainOptions{Algorithm: "1d", Ranks: 4, ReplicationFactor: -1}, "replication factor"},
		{"2d negative replication", TrainOptions{Algorithm: "2d", Ranks: 4, ReplicationFactor: -1}, "replication factor"},
		{"overlap on serial", TrainOptions{Algorithm: "serial", Overlap: true}, "overlap"},
		{"unknown precision", TrainOptions{Algorithm: "serial", Precision: "f16"}, "precision"},
		{"1d f32 over tcp", TrainOptions{Algorithm: "1d", Ranks: 4, Transport: "tcp", Precision: "f32"}, "precision"},
		{"1d f32", TrainOptions{Algorithm: "1d", Ranks: 4, Precision: "f32"}, "precision"},
		{"1.5d f32", TrainOptions{Algorithm: "1.5d", Ranks: 4, Precision: "f32"}, "precision"},
		{"2d f32", TrainOptions{Algorithm: "2d", Ranks: 4, Precision: "f32"}, "precision"},
		{"3d f32", TrainOptions{Algorithm: "3d", Ranks: 8, Precision: "f32"}, "precision"},
		// Checkpoint knobs without a directory used to be ignored silently.
		{"serial Every without Dir", TrainOptions{Algorithm: "serial", Checkpoint: CheckpointOptions{Every: 1}}, "Dir"},
		{"1d Every without Dir", TrainOptions{Algorithm: "1d", Ranks: 4, Checkpoint: CheckpointOptions{Every: 1}}, "Dir"},
		{"2d tcp Every without Dir", TrainOptions{Algorithm: "2d", Ranks: 4, Transport: "tcp", Checkpoint: CheckpointOptions{Every: 1}}, "Dir"},
		{"serial Keep without Dir", TrainOptions{Algorithm: "serial", Checkpoint: CheckpointOptions{Keep: 2}}, "Dir"},
		{"1d Keep without Dir", TrainOptions{Algorithm: "1d", Ranks: 4, Checkpoint: CheckpointOptions{Keep: 2}}, "Dir"},
		{"2d tcp Keep without Dir", TrainOptions{Algorithm: "2d", Ranks: 4, Transport: "tcp", Checkpoint: CheckpointOptions{Keep: 2}}, "Dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Epochs = 1
			_, err := Train(ds, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "tcp rank") {
				t.Fatalf("%+v: want an error naming %q, got %v", tc.opts, tc.want, err)
			}
		})
	}
}

func TestPredictWords(t *testing.T) {
	ds := RandomDataset(9, 8, 16, 8, 4, 10)
	pred := PredictWords(ds, 36)
	for _, algo := range []string{"1d", "1.5d", "2d", "3d"} {
		if pred[algo] <= 0 {
			t.Fatalf("missing prediction for %s: %v", algo, pred)
		}
	}
	// Past the crossover, the paper's ordering must hold:
	// 3D < 2D < 1D in words.
	if !(pred["3d"] < pred["2d"] && pred["2d"] < pred["1d"]) {
		t.Fatalf("word ordering violated at P=36: %v", pred)
	}
}

func TestCommCategories(t *testing.T) {
	cats := CommCategories()
	if len(cats) != 5 {
		t.Fatalf("got %d categories", len(cats))
	}
	seen := map[string]bool{}
	for _, c := range cats {
		seen[c] = true
	}
	for _, want := range []string{"misc", "trpose", "dcomm", "scomm", "spmm"} {
		if !seen[want] {
			t.Fatalf("missing category %q in %v", want, cats)
		}
	}
}

// TestTrainOptimizerAcrossAlgorithms: the optimizer knob lands once in the
// engine and works identically for every decomposition.
func TestTrainOptimizerAcrossAlgorithms(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 30)
	ranks := map[string]int{"serial": 1, "1d": 4, "1.5d": 4, "2d": 4, "3d": 8}
	for _, optimizer := range Optimizers {
		var first []float64
		for _, algo := range Algorithms {
			rep, err := Train(ds, TrainOptions{
				Algorithm: algo, Ranks: ranks[algo], Epochs: 3, Optimizer: optimizer,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, optimizer, err)
			}
			if first == nil {
				first = rep.Losses
				continue
			}
			for i := range first {
				if math.Abs(first[i]-rep.Losses[i]) > 1e-8 {
					t.Fatalf("%s/%s disagrees with serial at epoch %d: %v vs %v",
						algo, optimizer, i, rep.Losses[i], first[i])
				}
			}
		}
	}
}

// TestTrainReplicationFactor: the 1.5D replication knob is honored
// (TestTrainOptionValidation has its rejections).
func TestTrainReplicationFactor(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 31)
	rep, err := Train(ds, TrainOptions{Algorithm: "1.5d", Ranks: 8, ReplicationFactor: 4, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losses) != 2 {
		t.Fatalf("got %d losses", len(rep.Losses))
	}
}

// TestTrainValidationTracking: a ValMask yields per-epoch accuracy curves
// of the right shape, identical across decompositions.
func TestTrainValidationTracking(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 32)
	n := ds.Graph.NumVertices
	trainMask := make([]bool, n)
	valMask := make([]bool, n)
	for v := 0; v < n; v++ {
		if v%4 == 0 {
			valMask[v] = true
		} else {
			trainMask[v] = true
		}
	}
	serial, err := Train(ds, TrainOptions{
		Algorithm: "serial", Epochs: 3, TrainMask: trainMask, ValMask: valMask,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.TrainAccuracy) != 3 || len(serial.ValAccuracy) != 3 {
		t.Fatalf("tracking shape: %d/%d epochs", len(serial.TrainAccuracy), len(serial.ValAccuracy))
	}
	dist, err := Train(ds, TrainOptions{
		Algorithm: "2d", Ranks: 4, Epochs: 3, TrainMask: trainMask, ValMask: valMask,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.ValAccuracy {
		if serial.ValAccuracy[i] != dist.ValAccuracy[i] || serial.TrainAccuracy[i] != dist.TrainAccuracy[i] {
			t.Fatalf("epoch %d: accuracy curves diverge between serial and 2d", i)
		}
	}
	// Without a ValMask the curves stay nil.
	plain, err := Train(ds, TrainOptions{Algorithm: "serial", Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TrainAccuracy != nil || plain.ValAccuracy != nil {
		t.Fatal("tracking should be off without ValMask")
	}
}

// TestTrainWorkerCountsBitIdentical: the worker count is the only setting
// for kernel parallelism, and it never changes a bit. Serial and 2d train
// the same losses and output on one worker as on eight (enough for each of
// 2d's four ranks to split its kernels in two); then eight concurrent Train
// calls on the shared pool must agree with them (run with -race).
func TestTrainWorkerCountsBitIdentical(t *testing.T) {
	ds := RandomDataset(10, 8, 64, 32, 8, 33)
	runs := []TrainOptions{{Algorithm: "serial", Epochs: 2}, {Algorithm: "2d", Ranks: 4, Epochs: 2}}
	train := func(opts TrainOptions) (*TrainReport, error) { return Train(ds, opts) }
	same := func(got, want *TrainReport) error {
		if !slices.Equal(got.Losses, want.Losses) {
			return fmt.Errorf("losses %v, want %v", got.Losses, want.Losses)
		}
		if !slices.Equal(got.Result().Output.Data, want.Result().Output.Data) {
			return fmt.Errorf("output differs")
		}
		return nil
	}
	want := make([]*TrainReport, len(runs))
	for i, opts := range runs {
		useWorkers(t, 1)
		one, err := train(opts)
		if err != nil {
			t.Fatal(err)
		}
		useWorkers(t, 8)
		eight, err := train(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := same(eight, one); err != nil {
			t.Fatalf("%s at 8 workers vs 1: %v", opts.Algorithm, err)
		}
		want[i] = one
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := runs[i%len(runs)]
			rep, err := train(opts)
			if err == nil {
				err = same(rep, want[i%len(runs)])
			}
			if err != nil {
				errs <- fmt.Errorf("concurrent %s: %w", opts.Algorithm, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTrainHaloExchange: the API-level halo wiring — identical training
// results (to float tolerance, with output mapped back to the original
// vertex order under a partitioner) and strictly fewer dense words.
func TestTrainHaloExchange(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 9)
	for _, opts := range []TrainOptions{
		{Algorithm: "1d", Ranks: 4, Epochs: 3, HaloExchange: true},
		{Algorithm: "1d", Ranks: 4, Epochs: 3, HaloExchange: true, Partitioner: "random"},
		{Algorithm: "1d", Ranks: 4, Epochs: 3, HaloExchange: true, Partitioner: "ldg"},
		{Algorithm: "1.5d", Ranks: 4, Epochs: 3, HaloExchange: true, Partitioner: "ldg"},
	} {
		baseOpts := opts
		baseOpts.HaloExchange, baseOpts.Partitioner = false, ""
		base, err := Train(ds, baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Train(ds, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for e := range base.Losses {
			if math.Abs(got.Losses[e]-base.Losses[e]) > 1e-8 {
				t.Fatalf("%+v: loss diverges at epoch %d: %v vs %v",
					opts, e, got.Losses[e], base.Losses[e])
			}
		}
		// Output rows must be back in original vertex order: compare the
		// full matrices, not just shapes.
		wantOut := base.Result().Output
		gotOut := got.Result().Output
		for i := 0; i < wantOut.Rows; i++ {
			for j := 0; j < wantOut.Cols; j++ {
				if math.Abs(gotOut.At(i, j)-wantOut.At(i, j)) > 1e-8 {
					t.Fatalf("%+v: output (%d,%d) deviates", opts, i, j)
				}
			}
		}
		if got.WordsByCategory["dcomm"] >= base.WordsByCategory["dcomm"] {
			t.Fatalf("%+v: halo dcomm %d should be below broadcast %d",
				opts, got.WordsByCategory["dcomm"], base.WordsByCategory["dcomm"])
		}
	}
}

// TestTrainHaloOptionValidation: halo/partitioner options are rejected for
// algorithms without a 1D row decomposition, before any rank starts.
func TestTrainHaloOptionValidation(t *testing.T) {
	ds := RandomDataset(6, 4, 6, 4, 3, 11)
	cases := []struct {
		name string
		opts TrainOptions
		want string
	}{
		{"halo on 2d", TrainOptions{Algorithm: "2d", Ranks: 4, HaloExchange: true}, "partitioner/halo"},
		{"partitioner on serial", TrainOptions{Algorithm: "serial", Partitioner: "ldg"}, "partitioner/halo"},
		// Even the identity partitioner.
		{"block partitioner on 2d", TrainOptions{Algorithm: "2d", Ranks: 4, Partitioner: "block"}, "partitioner/halo"},
		{"unknown partitioner", TrainOptions{Algorithm: "1d", Ranks: 4, Partitioner: "metis"}, "partitioner"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Epochs = 1
			_, err := Train(ds, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "tcp rank") {
				t.Fatalf("%+v: want an error naming %q, got %v", tc.opts, tc.want, err)
			}
		})
	}
	// "block" is the default layout and composes with any row algorithm.
	if _, err := Train(ds, TrainOptions{Algorithm: "1d", Ranks: 4, Epochs: 1, Partitioner: "block", HaloExchange: true}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainOverlap: the Overlap option must leave every training number
// bit-identical while strictly shrinking the modeled time, for every
// distributed algorithm and in composition with the halo exchange.
func TestTrainOverlap(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 9)
	for _, tc := range []struct {
		opts TrainOptions
		// strict marks configurations with guaranteed pipeline stages; the
		// halo variant only hides time when the partition leaves interior
		// rows, which a plain R-MAT graph barely has, so it asserts
		// no-worse (core's overlap tests cover its strict win on a
		// community graph).
		strict bool
	}{
		{TrainOptions{Algorithm: "1d", Ranks: 4, Epochs: 3, Overlap: true}, true},
		// 8 ranks at c=2 give 4 teams, so each member pipelines 2 stages
		// (4 ranks would leave one stage per member — nothing to prefetch).
		{TrainOptions{Algorithm: "1.5d", Ranks: 8, Epochs: 3, Overlap: true}, true},
		{TrainOptions{Algorithm: "2d", Ranks: 4, Epochs: 3, Overlap: true}, true},
		{TrainOptions{Algorithm: "3d", Ranks: 8, Epochs: 3, Overlap: true}, true},
		{TrainOptions{Algorithm: "1d", Ranks: 4, Epochs: 3, Overlap: true, HaloExchange: true, Partitioner: "ldg"}, false},
	} {
		opts := tc.opts
		baseOpts := opts
		baseOpts.Overlap = false
		base, err := Train(ds, baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Train(ds, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for e := range base.Losses {
			if got.Losses[e] != base.Losses[e] {
				t.Fatalf("%+v: loss diverges at epoch %d: %v vs %v",
					opts, e, got.Losses[e], base.Losses[e])
			}
		}
		wantOut := base.Result().Output
		gotOut := got.Result().Output
		for i := 0; i < wantOut.Rows; i++ {
			for j := 0; j < wantOut.Cols; j++ {
				if gotOut.At(i, j) != wantOut.At(i, j) {
					t.Fatalf("%+v: output (%d,%d) deviates", opts, i, j)
				}
			}
		}
		for cat, words := range base.WordsByCategory {
			if got.WordsByCategory[cat] != words {
				t.Fatalf("%+v: %s words changed: %d vs %d",
					opts, cat, got.WordsByCategory[cat], words)
			}
		}
		if tc.strict {
			if got.ModeledSeconds >= base.ModeledSeconds {
				t.Fatalf("%+v: overlapped %v not below bulk-synchronous %v",
					opts, got.ModeledSeconds, base.ModeledSeconds)
			}
			if got.HiddenCommSeconds <= 0 {
				t.Fatalf("%+v: no communication hidden", opts)
			}
		} else if got.ModeledSeconds > base.ModeledSeconds {
			t.Fatalf("%+v: overlapped %v above bulk-synchronous %v",
				opts, got.ModeledSeconds, base.ModeledSeconds)
		}
		if base.HiddenCommSeconds != 0 {
			t.Fatalf("%+v: synchronous run reports hidden time", baseOpts)
		}
	}
}

// TestTrainPrecision pins TrainOptions.Precision end to end: "f32" trains
// the serial algorithm within the mixed-precision tolerances of "f64" and
// is rejected by every distributed algorithm on either transport
// (TestTrainOptionValidation);
// "" and "f64" are the default everywhere. Every report also says which
// instruction set the kernels ran on: "avx2" or "go", and "go" when the
// test binary was built with -tags purego.
func TestTrainPrecision(t *testing.T) {
	ds := RandomDataset(7, 5, 8, 4, 3, 13)
	ranks := map[string]int{"serial": 1, "1d": 4, "1.5d": 4, "2d": 4, "3d": 8}
	purego := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			purego = purego || s.Key == "-tags" && slices.Contains(strings.Split(s.Value, ","), "purego")
		}
	}
	var f64 *TrainReport
	for _, algo := range Algorithms {
		for _, precision := range []string{"", "f64"} {
			rep, err := Train(ds, TrainOptions{Algorithm: algo, Ranks: ranks[algo], Epochs: 3, Precision: precision})
			if err != nil {
				t.Fatalf("%s with Precision %q: %v", algo, precision, err)
			}
			if rep.Precision != "f64" {
				t.Fatalf("%s with Precision %q reports %q, want f64", algo, precision, rep.Precision)
			}
			if isa := rep.KernelISA; isa != "avx2" && isa != "go" || purego && isa != "go" {
				t.Fatalf("%s reports KernelISA %q (built with -tags purego: %v)", algo, isa, purego)
			}
			if algo == "serial" {
				f64 = rep
			}
		}
	}

	f32, err := Train(ds, TrainOptions{Algorithm: "serial", Epochs: 3, Precision: "f32"})
	if err != nil {
		t.Fatal(err)
	}
	if f32.Precision != "f32" {
		t.Fatalf("serial f32 run reports precision %q", f32.Precision)
	}
	tolerance.AssertCloseSlice(t, "f32 losses", f32.Losses, f64.Losses, 1e-3, 1e-3)
	tolerance.AssertClose(t, "f32 output", f32.Result().Output, f64.Result().Output, 5e-2, 5e-2)
	if math.Abs(f32.Accuracy-f64.Accuracy) > 0.05 {
		t.Fatalf("f32 accuracy %v vs f64 %v", f32.Accuracy, f64.Accuracy)
	}
}

func TestPartitionersList(t *testing.T) {
	if len(Partitioners) != 3 {
		t.Fatalf("got %v", Partitioners)
	}
}
