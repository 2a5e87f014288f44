// Command figures regenerates the paper's tables and figures on the
// scaled substrate:
//
//	figures -exp fig8            # one experiment
//	figures -exp all -quick      # every experiment, headline cells only
//	figures -exp table2 -scale 2 # stretch modeled time 2x
//	figures -exp figB1 -backend file -data-file /mnt/nvme/bench.img
//
// Output is the same rows/series the paper reports; EXPERIMENTS.md keeps
// the paper-vs-measured record.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"gnndrive/internal/experiments"
	"gnndrive/internal/trainsim"
)

var registry = map[string]func(context.Context, io.Writer, experiments.Opts) error{
	"table1":    experiments.Table1,
	"fig2":      experiments.Fig2,
	"fig3":      experiments.Fig3,
	"fig8":      experiments.Fig8,
	"fig9":      experiments.Fig9,
	"fig10":     experiments.Fig10,
	"fig11":     experiments.Fig11,
	"fig12":     experiments.Fig12,
	"fig13":     experiments.Fig13,
	"fig14":     experiments.Fig14,
	"table2":    experiments.Table2,
	"figB1":     experiments.FigB1,
	"ablations": experiments.Ablations,
}

// order fixes the "all" sequence (cheap first).
var order = []string{"table1", "figB1", "fig2", "fig3", "fig11", "ablations",
	"fig12", "fig13", "table2", "fig10", "fig9", "fig8", "fig14"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs the named experiments to stdout and returns the
// exit code: 2 for a usage error (caught before any experiment runs), 1
// for a failed experiment.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run (or 'all'); one of: "+names())
	scale := fs.Float64("scale", 0, "time-model stretch factor (default 2.0)")
	epochs := fs.Int("epochs", 1, "epochs per measurement")
	quick := fs.Bool("quick", false, "headline cells only")
	backend := fs.String("backend", "sim", "storage backend for figB1: sim (modeled SSD), file (real file), or linuring (real file via io_uring, falls back to file)")
	dataFile := fs.String("data-file", "", "backing file for -backend file or linuring (default: a temp file)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: figures -exp <name|all> [-quick] [-scale S] [-epochs N] [-backend B] [-data-file F]")
		fmt.Fprintln(stderr, "experiments:", names())
		return 2
	}
	// JobSpec.Config runs the check every run makes, so an unknown
	// backend or a negative scale stops here, before any experiment.
	if _, err := (trainsim.JobSpec{Backend: *backend, Scale: *scale}).Config(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	todo := order
	if *exp != "all" {
		todo = strings.Split(*exp, ",")
		for i, name := range todo {
			todo[i] = strings.TrimSpace(name)
			if _, ok := registry[todo[i]]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; have %s\n", todo[i], names())
				return 2
			}
		}
	}
	opts := experiments.Opts{Scale: *scale, Epochs: *epochs, Quick: *quick, Backend: *backend, DataFile: *dataFile}
	for _, name := range todo {
		start := time.Now()
		if err := registry[name](ctx, stdout, opts); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func names() string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}
