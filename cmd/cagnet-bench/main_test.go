package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchdiff"
	"repro/internal/costmodel"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSnapshotJSONSchemaGolden pins the shape of the -json snapshot —
// every experiment's field names and value kinds — against a golden
// file, so a field rename or type change that would silently break
// cagnet-benchdiff's flattener (or any committed BENCH_N.json consumer)
// fails here first. Values are free to move; only the schema is pinned.
// Regenerate after an intentional schema change with
//
//	go test ./cmd/cagnet-bench -run SchemaGolden -update
func TestSnapshotJSONSchemaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment in quick mode (~15 s)")
	}
	opts := harness.Options{Machine: costmodel.SummitSim, Quick: true, Optimizer: "sgd"}
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
	}
	snapshot := benchSnapshot{
		Machine: opts.Machine.Name, Quick: true, Optimizer: "sgd",
		Experiments: map[string]any{},
	}
	silence(t)
	for name, run := range runners {
		data, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snapshot.Experiments[name] = data
	}

	// The kernel sweep is exactly the three remaining paths, reference first.
	rows := snapshot.Experiments["kernels"].([]harness.KernelRow)
	names := []string{"f64-reference", "f64-default", "f32"}
	if len(rows) != len(names) {
		t.Fatalf("kernel sweep has %d rows, want %v", len(rows), names)
	}
	for i, r := range rows {
		if r.Name != names[i] || r.WallSecPerEpoch <= 0 {
			t.Errorf("kernel row %d = %+v, want %s with wall_sec_per_epoch > 0", i, r, names[i])
		}
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline row Speedup = %v, want 1", rows[0].Speedup)
	}

	buf, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := benchdiff.SchemaBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "snapshot_schema.golden", benchdiff.SchemaString(lines))
}

// silence redirects the runners' table printing away from the test log.
func silence(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = orig
		null.Close()
	})
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("schema drifted from %s — if intentional, rerun with -update and note the change:\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

// TestValidateConsumedRejections pins the fail-fast flag validation: an
// explicitly-set measurement flag that no selected experiment reads must
// error out instead of being silently dropped. One case per rejected
// combination.
func TestValidateConsumedRejections(t *testing.T) {
	cases := map[string]struct {
		explicit []string
		selected []string
	}{
		"halo with fig2":           {[]string{"halo"}, []string{"fig2"}},
		"halo with kernels":        {[]string{"halo"}, []string{"kernels"}},
		"halo with partition":      {[]string{"halo"}, []string{"partition"}},
		"partitioner with fig3":    {[]string{"partitioner"}, []string{"fig3"}},
		"overlap with fig2":        {[]string{"overlap"}, []string{"fig2"}},
		"overlap with overlap-exp": {[]string{"overlap"}, []string{"overlap"}},
		"optimizer with scaling":   {[]string{"optimizer"}, []string{"scaling"}},
	}
	for name, tc := range cases {
		explicit := map[string]bool{}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		if err := validateConsumed(explicit, tc.selected); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateConsumedAccepts: flags reaching at least one selected
// experiment (notably the full default sweep) must keep working.
func TestValidateConsumedAccepts(t *testing.T) {
	all := []string{"tableVI", "fig2", "fig3", "partition", "crossover", "algo3d",
		"overlap", "kernels", "scaling", "convergence"}
	cases := map[string]struct {
		explicit []string
		selected []string
	}{
		"halo with all":           {[]string{"halo"}, all},
		"everything with all":     {[]string{"halo", "partitioner", "overlap", "optimizer"}, all},
		"halo with crossover":     {[]string{"halo"}, []string{"crossover"}},
		"overlap with algo3d":     {[]string{"overlap"}, []string{"algo3d"}},
		"optimizer w convergence": {[]string{"optimizer"}, []string{"convergence"}},
		"unrelated flags":         {[]string{"quick", "machine", "json"}, []string{"fig2"}},
		"nothing explicit":        {nil, []string{"fig2"}},
	}
	for name, tc := range cases {
		explicit := map[string]bool{}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		if err := validateConsumed(explicit, tc.selected); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}
