package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pick resolves -exp through the table, so the cases below cannot name an
// experiment the tool does not have.
func pick(t *testing.T, exp string) []experiment {
	t.Helper()
	es, err := selectExperiments(exp)
	if err != nil {
		t.Fatal(err)
	}
	return es
}

func set(flags ...string) map[string]bool {
	explicit := map[string]bool{}
	for _, f := range flags {
		explicit[f] = true
	}
	return explicit
}

// TestValidateConsumedRejections pins the fail-fast flag validation: an
// explicitly-set measurement flag that no selected experiment reads must
// error out instead of being silently dropped. One case per rejected
// combination.
func TestValidateConsumedRejections(t *testing.T) {
	cases := map[string]struct {
		explicit []string
		selected string
	}{
		"halo with fig2":           {[]string{"halo"}, "fig2"},
		"halo with tableVI":        {[]string{"halo"}, "tableVI"},
		"halo with partition":      {[]string{"halo"}, "partition"},
		"partitioner with fig3":    {[]string{"partitioner"}, "fig3"},
		"overlap with fig2":        {[]string{"overlap"}, "fig2"},
		"overlap with overlap-exp": {[]string{"overlap"}, "overlap"},
		"overlap with crossover":   {[]string{"overlap"}, "crossover"},
	}
	for name, tc := range cases {
		if err := validateConsumed(set(tc.explicit...), pick(t, tc.selected)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateConsumedAccepts: flags reaching at least one selected
// experiment (notably the full default sweep) must keep working.
func TestValidateConsumedAccepts(t *testing.T) {
	cases := map[string]struct {
		explicit []string
		selected string
	}{
		"halo with all":       {[]string{"halo"}, "all"},
		"everything with all": {[]string{"halo", "partitioner", "overlap"}, "all"},
		"halo with crossover": {[]string{"halo"}, "crossover"},
		"overlap with algo3d": {[]string{"overlap"}, "algo3d"},
		"unrelated flags":     {[]string{"quick", "machine", "json"}, "fig2"},
		"nothing explicit":    {nil, "fig2"},
	}
	for name, tc := range cases {
		if err := validateConsumed(set(tc.explicit...), pick(t, tc.selected)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestExperimentTable: the table is the eight modeled experiments, and every
// flag an entry claims to read is one the tool defines.
func TestExperimentTable(t *testing.T) {
	if len(experiments) != 8 {
		t.Errorf("%d experiments, want the eight modeled ones", len(experiments))
	}
	fs := newFlagSet(new(bench))
	for _, e := range experiments {
		for _, f := range e.reads {
			if fs.Lookup(f) == nil {
				t.Errorf("%s reads -%s, which is not a flag", e.name, f)
			}
		}
	}
}

// TestRunRejections: a command line the tool cannot honour fails before any
// experiment runs — nothing on stdout — and an unknown experiment, the
// retired ones included, is answered with the eight valid names.
func TestRunRejections(t *testing.T) {
	for _, exp := range []string{"nope", "kernels", "transport", "fault", "convergence", ""} {
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
		"negative workers": {"-exp", "tableVI", "-quick", "-workers", "-3"},
		"unread flag":      {"-exp", "tableVI", "-quick", "-halo"},
		"unknown machine":  {"-exp", "tableVI", "-quick", "-machine", "abacus"},
		"retired flag":     {"-exp", "tableVI", "-quick", "-optimizer", "adam"},
		"retired backend":  {"-exp", "tableVI", "-quick", "-backend", "serial"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%s: %v accepted", name, args)
		}
	}
}

// TestRunJSONDocument: -json writes the rows behind the table under the
// experiment's name, with a header that echoes the flags.
func TestRunJSONDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "tableVI", "-quick", "-machine", "laptop-cpu", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machine     string
		Quick       bool
		Experiments map[string][]map[string]any
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Machine != "laptop-cpu" || !doc.Quick {
		t.Errorf("header %+v does not echo -machine laptop-cpu -quick", doc)
	}
	if len(doc.Experiments) != 1 || len(doc.Experiments["tableVI"]) != 3 {
		t.Errorf("experiments = %v, want tableVI alone with three rows", doc.Experiments)
	}
}

// TestRunDeterministic: stdout is a pure function of the flags.
func TestRunDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := run([]string{"-exp", "crossover", "-quick"}, out); err != nil {
			t.Fatal(err)
		}
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("two runs of -exp crossover -quick differ:\n%s---\n%s", first.String(), second.String())
	}
}
