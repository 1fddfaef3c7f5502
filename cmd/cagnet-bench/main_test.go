package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentTable: the table is the seven modeled experiments, each
// name once.
func TestExperimentTable(t *testing.T) {
	if len(experiments) != 7 {
		t.Errorf("%d experiments, want the seven modeled ones", len(experiments))
	}
	seen := map[string]bool{}
	for _, name := range names(experiments) {
		if seen[name] {
			t.Errorf("experiment %s listed twice", name)
		}
		seen[name] = true
	}
}

// TestRunRejections: a command line the tool cannot honour fails before any
// experiment runs — nothing on stdout — and an unknown experiment, the
// retired ones included, is answered with the seven valid names.
func TestRunRejections(t *testing.T) {
	for _, exp := range []string{"nope", "kernels", "transport", "fault", "convergence", "algo3d", "overlap", ""} {
		var out bytes.Buffer
		err := run([]string{"-exp", exp, "-quick"}, &out)
		if err == nil {
			t.Fatalf("-exp %q accepted", exp)
		}
		for _, name := range names(experiments) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-exp %q: error %q does not name %s", exp, err, name)
			}
		}
		if out.Len() != 0 {
			t.Errorf("-exp %q printed %q before failing", exp, out.String())
		}
	}
	for name, args := range map[string][]string{
		"negative workers":    {"-exp", "tableVI", "-quick", "-workers", "-3"},
		"unknown machine":     {"-exp", "tableVI", "-quick", "-machine", "abacus"},
		"retired flag":        {"-exp", "tableVI", "-quick", "-optimizer", "adam"},
		"retired backend":     {"-exp", "tableVI", "-quick", "-backend", "serial"},
		"retired halo":        {"-exp", "family", "-quick", "-halo"},
		"retired partitioner": {"-exp", "family", "-quick", "-partitioner", "ldg"},
		"retired overlap":     {"-exp", "family", "-quick", "-overlap"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%s: %v accepted", name, args)
		}
	}
}

// TestRunJSONDocument: -json writes the rows behind the table under the
// experiment's name, with a header that echoes the flags, and a family row
// carries both readings of its runs.
func TestRunJSONDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "tableVI", "-quick", "-machine", "laptop-cpu", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machine     string
		Quick       bool
		Experiments map[string][]map[string]any
	}
	read := func() {
		t.Helper()
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc.Experiments = nil
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if doc.Machine != "laptop-cpu" || !doc.Quick {
		t.Errorf("header %+v does not echo -machine laptop-cpu -quick", doc)
	}
	if len(doc.Experiments) != 1 || len(doc.Experiments["tableVI"]) != 3 {
		t.Errorf("experiments = %v, want tableVI alone with three rows", doc.Experiments)
	}

	if err := run([]string{"-exp", "family", "-quick", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	read()
	rows := doc.Experiments["family"]
	if len(rows) != 6 {
		t.Fatalf("family rows = %v, want six", rows)
	}
	for _, r := range rows {
		bulk, _ := r["EpochTime"].(float64)
		crit, _ := r["CriticalPathTime"].(float64)
		if _, ok := r["HiddenCommTime"].(float64); !ok || bulk <= 0 || crit <= 0 || crit > bulk {
			t.Errorf("family row %s halo=%v: bulk %v, critical path %v, hidden %v — want both readings, critical path ≤ bulk",
				r["Algorithm"], r["Halo"], r["EpochTime"], r["CriticalPathTime"], r["HiddenCommTime"])
		}
	}
}

// TestQuickGolden: stdout is a pure function of the flags, and every
// number -quick prints — all seven experiments — is the one in
// testdata/quick.golden. After an intended change to a table, regenerate it
// with go run ./cmd/cagnet-bench -quick > cmd/cagnet-bench/testdata/quick.golden
// and say in the commit which numbers moved and why.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-quick"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-quick drifted from testdata/quick.golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
