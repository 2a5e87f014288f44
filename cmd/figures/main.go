// Command figures regenerates the paper's tables and figures on the
// scaled substrate:
//
//	figures -exp fig8            # one experiment
//	figures -exp all -quick      # every experiment, headline cells only
//	figures -exp table2 -scale 2 # stretch modeled time 2x
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
	exp := flag.String("exp", "", "experiment to run (or 'all'); one of: "+names())
	scale := flag.Float64("scale", 0, "time-model stretch factor (default 1.0)")
	epochs := flag.Int("epochs", 1, "epochs per measurement")
	quick := flag.Bool("quick", false, "headline cells only")
	flag.Parse()
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: figures -exp <name|all> [-quick] [-scale S] [-epochs N]")
		fmt.Fprintln(os.Stderr, "experiments:", names())
		os.Exit(2)
	}
	opts := experiments.Opts{Scale: *scale, Epochs: *epochs, Quick: *quick}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	run := func(name string) {
		f, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", name, names())
			os.Exit(2)
		}
		start := time.Now()
		if err := f(ctx, os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(name))
	}
}

func names() string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}
