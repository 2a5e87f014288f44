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
	"slices"
	"strings"
	"syscall"
	"time"

	"gnndrive/internal/experiments"
	"gnndrive/internal/trainsim"
)

type experiment struct {
	name string
	run  func(context.Context, io.Writer, experiments.Opts) error
}

// exps lists every experiment in the order "all" runs them (cheap
// first).
var exps = []experiment{
	{"table1", experiments.Table1},
	{"figB1", experiments.FigB1},
	{"fig2", experiments.Fig2},
	{"fig3", experiments.Fig3},
	{"fig11", experiments.Fig11},
	{"ablations", experiments.Ablations},
	{"fig12", experiments.Fig12},
	{"fig13", experiments.Fig13},
	{"table2", experiments.Table2},
	{"fig10", experiments.Fig10},
	{"fig9", experiments.Fig9},
	{"fig8", experiments.Fig8},
	{"fig14", experiments.Fig14},
}

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
	todo := exps
	if *exp != "all" {
		todo = nil
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(exps, func(e experiment) bool { return e.name == name })
			if i < 0 {
				fmt.Fprintf(stderr, "unknown experiment %q; have %s\n", name, names())
				return 2
			}
			todo = append(todo, exps[i])
		}
	}
	opts := experiments.Opts{Scale: *scale, Epochs: *epochs, Quick: *quick, Backend: *backend, DataFile: *dataFile}
	for _, e := range todo {
		start := time.Now()
		if err := e.run(ctx, stdout, opts); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func names() string {
	ns := make([]string, len(exps))
	for i, e := range exps {
		ns[i] = e.name
	}
	return strings.Join(ns, ", ")
}
