// Command datagen builds one of the scaled synthetic datasets (Table 1
// stand-ins) and either prints its statistics or persists it as a .gnnd
// container for cmd/gnndrive -load:
//
//	datagen -dataset papers100m-s -out papers.gnnd
//	datagen -dataset papers100m-s -layout packed -out papers.gnnd
//	datagen -dataset mag240m-s -dim 512 -stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/trainsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, builds the dataset, packs it when
// asked, and prints its statistics and what it wrote to stdout. Errors go
// to stderr. It returns the exit status: 0 on success and on -h, 2 for a
// malformed command line, 1 for any other error, including an unknown
// name. It takes no ctx: a build does not stop early, and Ctrl-C must
// still kill it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f cliFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	o, err := f.lower()
	if err == nil {
		err = build(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// options is the resolved command line.
type options struct {
	spec       gen.Spec
	out        string
	stats      bool
	packed     bool
	traceModel nn.ModelKind
	traceBatch int
	traceSeed  uint64
}

// cliFlags is the parsed command line: the options that need no
// resolving, plus the names and overrides lower resolves.
type cliFlags struct {
	options
	dataset, layout, traceModel string
	dim                         int
	seed                        uint64
}

// register declares every flag of the command on fs, writing into f.
func (f *cliFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.dataset, "dataset", "papers100m-s", "dataset: papers100m-s, twitter-s, friendster-s, mag240m-s, tiny")
	fs.IntVar(&f.dim, "dim", 0, "override feature dimension")
	fs.Uint64Var(&f.seed, "seed", 0, "override generator seed")
	fs.StringVar(&f.layout, "layout", "strided", "feature layout: strided (dense node-ID order) or packed (offline batch-aware packing; -out saves the packed offsets in the container)")
	fs.StringVar(&f.traceModel, "trace-model", "sage", "model whose default batch/fanouts drive the packing trace")
	fs.StringVar(&f.out, "out", "", "write a .gnnd container to this path")
	fs.BoolVar(&f.stats, "stats", true, "print dataset statistics")
	fs.IntVar(&f.traceBatch, "trace-batch", 0, "packing-trace batch size (0 = model default; match gnndrive -batch)")
	fs.Uint64Var(&f.traceSeed, "trace-seed", 1, "packing-trace seed (match gnndrive -seed)")
}

// lower resolves the parsed flags into options. An unknown dataset,
// -layout or -trace-model is an error here, before anything is built.
func (f *cliFlags) lower() (options, error) {
	o := f.options
	var err error
	if o.spec, err = gen.ByName(f.dataset); err != nil {
		return options{}, err
	}
	if f.dim != 0 {
		o.spec.Dim = f.dim
	}
	if f.seed != 0 {
		o.spec.Seed = f.seed
	}
	switch f.layout {
	case "", "strided":
	case "packed":
		o.packed = true
	default:
		return options{}, fmt.Errorf("unknown -layout %q (want strided or packed)", f.layout)
	}
	if o.traceModel, err = nn.ModelByName(f.traceModel); err != nil {
		return options{}, err
	}
	return o, nil
}

// build makes the dataset o describes and writes what o asks for.
func build(o options, stdout io.Writer) error {
	start := time.Now()
	// Build through the integrity layer: every block is checksummed as it
	// is written, so -out saves the CRC32C table in the container, and a
	// loader verifies against it from the first read.
	ds, err := gen.BuildWith(o.spec, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		return err
	}
	defer ds.Dev.Close()
	if err := ds.Validate(); err != nil {
		return err
	}
	if o.packed {
		t0 := time.Now()
		if err := trainsim.PackDataset(ds, trainsim.Config{Model: o.traceModel, BatchSize: o.traceBatch, Seed: o.traceSeed}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "packed    %d nodes in trace order in %v\n", ds.NumNodes, time.Since(t0).Round(time.Millisecond))
	}
	if o.stats {
		var maxDeg int64
		for v := int64(0); v < ds.NumNodes; v++ {
			if d := ds.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		fmt.Fprintf(stdout, "dataset   %s\n", ds.Name)
		fmt.Fprintf(stdout, "nodes     %d\n", ds.NumNodes)
		fmt.Fprintf(stdout, "edges     %d (avg degree %.1f, max %d)\n",
			ds.NumEdges, float64(ds.NumEdges)/float64(ds.NumNodes), maxDeg)
		fmt.Fprintf(stdout, "dim       %d (features %.1f MB)\n", ds.Dim, float64(ds.Layout.FeaturesLen)/1e6)
		fmt.Fprintf(stdout, "classes   %d\n", ds.NumClasses)
		fmt.Fprintf(stdout, "topology  %.1f MB\n", float64(ds.Layout.IndicesLen)/1e6)
		fmt.Fprintf(stdout, "splits    train=%d val=%d\n", len(ds.TrainIdx), len(ds.ValIdx))
		fmt.Fprintf(stdout, "built in  %v\n", time.Since(start).Round(time.Millisecond))
	}
	if o.out == "" {
		return nil
	}
	if err := graph.Save(ds, o.out); err != nil {
		return err
	}
	fi, _ := os.Stat(o.out)
	fmt.Fprintf(stdout, "wrote %s (%.1f MB)\n", o.out, float64(fi.Size())/1e6)
	return nil
}
