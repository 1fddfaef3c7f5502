// Command cagnet-datagen synthesizes the dataset analogs (or arbitrary
// R-MAT graphs) and writes them to disk as binary or text edge lists.
//
// Usage:
//
//	cagnet-datagen -dataset reddit-sim -out reddit.bin [-format binary|text]
//	cagnet-datagen -scale 14 -edgefactor 16 -seed 7 -out rmat.txt -format text
//
// An analog carries its own size and seed, so -dataset together with
// -scale, -edgefactor or -seed is rejected. Every flag is checked before
// -out is opened: a rejected invocation leaves an existing file as it was.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"strings"

	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cagnet-datagen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// generatorFlags are the flags only the R-MAT generator reads.
var generatorFlags = []string{"scale", "edgefactor", "seed"}

// run is the whole tool: parse and validate args, build the graph, write it
// to -out and print the one-line summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cagnet-datagen", flag.ContinueOnError)
	dataset := fs.String("dataset", "", "dataset analog to build (reddit-sim, amazon-sim, protein-sim)")
	scale := fs.Int("scale", 12, "R-MAT scale (2^scale vertices, 0 to 30) when -dataset is empty")
	edgeFactor := fs.Int("edgefactor", 16, "edges per vertex for R-MAT generation when -dataset is empty")
	seed := fs.Int64("seed", 1, "R-MAT generator seed when -dataset is empty")
	out := fs.String("out", "", "output path (required)")
	format := fs.String("format", "binary", "output format: binary or text")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	var write func(*graph.Graph, io.Writer) error
	switch *format {
	case "binary":
		write = (*graph.Graph).WriteBinary
	case "text":
		write = (*graph.Graph).WriteText
	default:
		return fmt.Errorf("unknown format %q (want binary or text)", *format)
	}

	var g *graph.Graph
	if *dataset != "" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(generatorFlags, f.Name) {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s only applies to R-MAT generation; -dataset %s carries its own size and seed", strings.Join(ignored, ", "), *dataset)
		}
		spec, err := graph.AnalogByName(*dataset)
		if err != nil {
			return err
		}
		g = spec.Build().Graph
	} else {
		if *scale < 0 || *scale > 30 {
			return fmt.Errorf("-scale must be between 0 and 30, got %d", *scale)
		}
		if *edgeFactor < 0 {
			return fmt.Errorf("-edgefactor must be ≥ 0, got %d", *edgeFactor)
		}
		g = graph.RMAT(*scale, *edgeFactor, graph.DefaultRMAT, rand.New(rand.NewSource(*seed)))
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(g, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := graph.Stats(g.Adjacency())
	_, err = fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges (avg degree %.1f, max %d)\n",
		*out, g.NumVertices, g.NumEdges(), st.AvgDegree, st.MaxDegree)
	return err
}
