// Command datagen builds one of the scaled synthetic datasets (Table 1
// stand-ins) and either prints its statistics or persists it as a .gnnd
// container for cmd/gnndrive -load:
//
//	datagen -dataset papers100m-s -out papers.gnnd
//	datagen -dataset papers100m-s -layout packed -out papers.gnnd
//	datagen -dataset mag240m-s -dim 512 -stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

func main() {
	log.SetFlags(0)
	name := flag.String("dataset", "papers100m-s", "dataset: papers100m-s, twitter-s, friendster-s, mag240m-s, tiny")
	dim := flag.Int("dim", 0, "override feature dimension")
	out := flag.String("out", "", "write a .gnnd container to this path")
	stats := flag.Bool("stats", true, "print dataset statistics")
	seed := flag.Uint64("seed", 0, "override generator seed")
	layoutName := flag.String("layout", "strided", "feature layout: strided (dense node-ID order) or packed (offline batch-aware packing; -out also writes a .pidx segment index)")
	segmentKB := flag.Int("segment-kb", 0, "packed segment size in KiB (0 = default 256)")
	traceModel := flag.String("trace-model", "sage", "model whose default batch/fanouts drive the packing trace")
	traceBatch := flag.Int("trace-batch", 0, "packing-trace batch size (0 = model default; match gnndrive -batch)")
	traceSeed := flag.Uint64("trace-seed", 1, "packing-trace seed (match gnndrive -seed)")
	flag.Parse()

	spec, err := gen.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	if *dim != 0 {
		spec.Dim = *dim
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	start := time.Now()
	// Build through the integrity layer: every block is checksummed as it
	// is written, so -out can persist a CRC32C sidecar with the container.
	ds, ib, err := gen.BuildVerified(spec, sim.InstantConfig(), integrity.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Dev.Close()
	if err := ds.Validate(); err != nil {
		log.Fatal(err)
	}
	switch *layoutName {
	case "", "strided":
	case "packed":
		kind, err := nn.ModelByName(*traceModel)
		if err != nil {
			log.Fatal(err)
		}
		o := core.DefaultOptions(kind)
		if *traceBatch != 0 {
			o.BatchSize = *traceBatch
		}
		t0 := time.Now()
		tr, err := gen.SampleTrace(ds, o.BatchSize, o.Fanouts, *traceSeed, true)
		if err != nil {
			log.Fatal(err)
		}
		p, err := layout.PackInPlace(ds.Dev, ds.Layout.FeaturesOff, int(ds.FeatBytes()),
			ds.NumNodes, tr, layout.PackOptions{SegmentBytes: *segmentKB << 10})
		if err != nil {
			log.Fatal(err)
		}
		ds.Addr = p
		fmt.Printf("packed    %d/%d nodes traced into %d KiB segments in %v\n",
			tr.Len(), ds.NumNodes, p.SegmentBytes()>>10, time.Since(t0).Round(time.Millisecond))
	default:
		log.Fatalf("unknown -layout %q (want strided or packed)", *layoutName)
	}
	if *stats {
		var maxDeg int64
		for v := int64(0); v < ds.NumNodes; v++ {
			if d := ds.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		fmt.Printf("dataset   %s\n", ds.Name)
		fmt.Printf("nodes     %d\n", ds.NumNodes)
		fmt.Printf("edges     %d (avg degree %.1f, max %d)\n",
			ds.NumEdges, float64(ds.NumEdges)/float64(ds.NumNodes), maxDeg)
		fmt.Printf("dim       %d (features %.1f MB)\n", ds.Dim, float64(ds.Layout.FeaturesLen)/1e6)
		fmt.Printf("classes   %d\n", ds.NumClasses)
		fmt.Printf("topology  %.1f MB\n", float64(ds.Layout.IndicesLen)/1e6)
		fmt.Printf("splits    train=%d val=%d\n", len(ds.TrainIdx), len(ds.ValIdx))
		fmt.Printf("built in  %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *out != "" {
		if err := graph.Save(ds, *out); err != nil {
			log.Fatal(err)
		}
		fi, _ := os.Stat(*out)
		fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(fi.Size())/1e6)
		if ds.Addr != nil {
			pi, _ := os.Stat(*out + ".pidx")
			fmt.Printf("wrote %s.pidx (%.1f KB segment index)\n", *out, float64(pi.Size())/1e3)
		}
		// The sidecar checksums the device image the build produced; a
		// loader recreating the same geometry (graph.Load with an
		// integrity-wrapped factory and 4 KiB of scratch) adopts it and
		// reads verified from the start.
		crc := *out + ".crc"
		if err := ib.SaveSidecar(crc); err != nil {
			log.Fatal(err)
		}
		ci, _ := os.Stat(crc)
		fmt.Printf("wrote %s (%.1f KB checksum sidecar)\n", crc, float64(ci.Size())/1e3)
	}
}
