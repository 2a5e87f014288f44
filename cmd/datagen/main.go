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
	"log"
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
	log.SetFlags(0)
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
}

// options is the parsed command line.
type options struct {
	spec       gen.Spec
	out        string
	stats      bool
	packed     bool
	traceModel nn.ModelKind
	traceBatch int
	traceSeed  uint64
}

// parseArgs parses the command line. An unknown dataset, -layout or
// -trace-model is an error here, before anything is built.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	name := fs.String("dataset", "papers100m-s", "dataset: papers100m-s, twitter-s, friendster-s, mag240m-s, tiny")
	dim := fs.Int("dim", 0, "override feature dimension")
	seed := fs.Uint64("seed", 0, "override generator seed")
	layoutName := fs.String("layout", "strided", "feature layout: strided (dense node-ID order) or packed (offline batch-aware packing; -out also writes a .pidx offset index)")
	traceModel := fs.String("trace-model", "sage", "model whose default batch/fanouts drive the packing trace")
	var o options
	fs.StringVar(&o.out, "out", "", "write a .gnnd container to this path")
	fs.BoolVar(&o.stats, "stats", true, "print dataset statistics")
	fs.IntVar(&o.traceBatch, "trace-batch", 0, "packing-trace batch size (0 = model default; match gnndrive -batch)")
	fs.Uint64Var(&o.traceSeed, "trace-seed", 1, "packing-trace seed (match gnndrive -seed)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	var err error
	if o.spec, err = gen.ByName(*name); err != nil {
		return options{}, err
	}
	if *dim != 0 {
		o.spec.Dim = *dim
	}
	if *seed != 0 {
		o.spec.Seed = *seed
	}
	switch *layoutName {
	case "", "strided":
	case "packed":
		o.packed = true
	default:
		return options{}, fmt.Errorf("unknown -layout %q (want strided or packed)", *layoutName)
	}
	if o.traceModel, err = nn.ModelByName(*traceModel); err != nil {
		return options{}, err
	}
	return o, nil
}

// run is the command: it builds the dataset, packs it when asked, and
// prints its statistics and what it wrote to stdout.
func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	start := time.Now()
	// Build through the integrity layer: every block is checksummed as it
	// is written, so -out can persist a CRC32C sidecar with the container.
	ds, err := gen.BuildWith(o.spec, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		return err
	}
	defer ds.Dev.Close()
	ib := ds.Dev.(*integrity.Backend)
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
	if ds.Addr != nil {
		pi, _ := os.Stat(o.out + ".pidx")
		fmt.Fprintf(stdout, "wrote %s.pidx (%.1f KB offset index)\n", o.out, float64(pi.Size())/1e3)
	}
	// The sidecar checksums the device image the build produced; a
	// loader recreating the same geometry (graph.Load with an
	// integrity-wrapped factory and 4 KiB of scratch) adopts it and
	// reads verified from the start.
	crc := o.out + ".crc"
	if err := ib.SaveSidecar(crc); err != nil {
		return err
	}
	ci, _ := os.Stat(crc)
	fmt.Fprintf(stdout, "wrote %s (%.1f KB checksum sidecar)\n", crc, float64(ci.Size())/1e3)
	return nil
}
