package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestRejectionsLeaveOutUntouched: every invalid invocation fails before
// -out is opened, so a file already there survives byte for byte, and the
// message names what was wrong.
func TestRejectionsLeaveOutUntouched(t *testing.T) {
	cases := map[string]struct {
		args []string
		want string
	}{
		"unknown format":          {[]string{"-format", "bogus"}, "bogus"},
		"dataset with seed":       {[]string{"-dataset", "reddit-sim", "-seed", "7"}, "-seed"},
		"dataset with scale":      {[]string{"-dataset", "reddit-sim", "-scale", "9"}, "-scale"},
		"dataset with edgefactor": {[]string{"-dataset", "reddit-sim", "-edgefactor", "4"}, "-edgefactor"},
		"unknown dataset":         {[]string{"-dataset", "nope-sim"}, "nope-sim"},
		"negative scale":          {[]string{"-scale", "-1"}, "-scale"},
		"scale past the range":    {[]string{"-scale", "31"}, "-scale"},
		"negative edgefactor":     {[]string{"-scale", "4", "-edgefactor", "-2"}, "-edgefactor"},
	}
	before := []byte("an earlier run's graph\n")
	for name, tc := range cases {
		out := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(out, before, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		err := run(append(tc.args, "-out", out), &stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", name, tc.want, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q", name, stdout.String())
		}
		if after, err := os.ReadFile(out); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: -out is now %q (%v), want it untouched", name, after, err)
		}
	}
	if err := run([]string{"-scale", "4"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("no -out: want an error naming -out, got %v", err)
	}
}

// TestRoundTrip writes an R-MAT graph in each format, reads it back through
// graph's readers, and compares it with the generator called directly; the
// summary line is the one line printed.
func TestRoundTrip(t *testing.T) {
	want := graph.RMAT(6, 4, graph.DefaultRMAT, rand.New(rand.NewSource(7)))
	readers := map[string]func(io.Reader) (*graph.Graph, error){"binary": graph.ReadBinary, "text": graph.ReadText}
	for format, read := range readers {
		out := filepath.Join(t.TempDir(), "g."+format)
		var stdout bytes.Buffer
		if err := run([]string{"-scale", "6", "-edgefactor", "4", "-seed", "7", "-format", format, "-out", out}, &stdout); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: reading back: %v", format, err)
		}
		if got.NumVertices != 64 || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Errorf("%s: read back %d vertices and %d edges, generator gives %d and %d (or the edges differ)",
				format, got.NumVertices, len(got.Edges), want.NumVertices, len(want.Edges))
		}
		st := graph.Stats(want.Adjacency())
		summary := fmt.Sprintf("wrote %s: 64 vertices, %d edges (avg degree %.1f, max %d)\n", out, want.NumEdges(), st.AvgDegree, st.MaxDegree)
		if stdout.String() != summary {
			t.Errorf("%s: printed %q, want %q", format, stdout.String(), summary)
		}
	}
}

// TestDatasetAnalog: -dataset alone builds the named analog at its own size.
func TestDatasetAnalog(t *testing.T) {
	out := filepath.Join(t.TempDir(), "reddit.bin")
	var stdout bytes.Buffer
	if err := run([]string{"-dataset", "reddit-sim", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := graph.AnalogByName("reddit-sim")
	if g.NumVertices != 1<<spec.Scale || len(g.Edges) == 0 {
		t.Errorf("reddit-sim: read back %d vertices, %d edges; want %d vertices", g.NumVertices, len(g.Edges), 1<<spec.Scale)
	}
	if !strings.HasPrefix(stdout.String(), "wrote "+out+": 4096 vertices, ") {
		t.Errorf("printed %q", stdout.String())
	}
}
