// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 and Appendix B) on the scaled substrate. Each function
// prints the same rows/series the paper reports; cmd/figures exposes them
// as a CLI and the repository's bench files wrap them as testing.B
// benchmarks. EXPERIMENTS.md records paper-vs-measured shape for each.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/nn"
	"gnndrive/internal/trainsim"
)

// Opts tune an experiment run.
type Opts struct {
	// Scale stretches modeled time (default 2.0).
	Scale float64
	// Epochs per measurement (default 1; the paper averages 10).
	Epochs int
	// Quick restricts sweeps to the headline cells so a full run of all
	// experiments finishes in tens of minutes on one core.
	Quick bool
	// Backend selects the storage backend for experiments that support it
	// (FigB1): "sim" (default), "file" or "linuring" (see
	// trainsim.OpenBackend).
	Backend string
	// DataFile is the backing file for Backend "file" or "linuring"; empty
	// means a temp file removed after the run.
	DataFile string
}

// defaultScale is the stretch at which the modeled-time components stay
// well above the host's sleep granularity, keeping system orderings
// stable run-to-run.
const defaultScale = 2.0

func (o Opts) fill() Opts {
	if o.Scale == 0 {
		o.Scale = defaultScale
	}
	if o.Epochs == 0 {
		o.Epochs = 1
	}
	return o
}

// datasetsFor returns the experiment's dataset list.
func datasetsFor(quick bool) []gen.Spec {
	if quick {
		return []gen.Spec{gen.Papers(), gen.Twitter()}
	}
	return []gen.Spec{gen.Papers(), gen.Twitter(), gen.Friendster(), gen.MAG240M()}
}

func modelsFor(quick bool) []nn.ModelKind {
	if quick {
		return []nn.ModelKind{nn.GraphSAGE}
	}
	return []nn.ModelKind{nn.GraphSAGE, nn.GCN, nn.GAT}
}

// runCell measures one (dataset, model, system) cell and returns the
// average epoch time, or an error string ("OOM"/"ERR") for failure cells.
func runCell(ctx context.Context, cfg trainsim.Config, sys trainsim.SystemKind, epochs int) (time.Duration, string) {
	res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: epochs})
	if err != nil {
		return 0, classify(err)
	}
	return res.AvgEpoch(), ""
}

func classify(err error) string {
	switch {
	case errors.Is(err, hostmem.ErrOOM):
		return "OOM"
	case errors.Is(err, device.ErrDeviceOOM):
		return "OOM(dev)"
	default:
		return "ERR:" + err.Error()
	}
}

// fmtCell renders a duration or failure tag.
func fmtCell(d time.Duration, fail string) string {
	if fail != "" {
		return fail
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Table1 prints the dataset summary (paper Table 1) for the scaled
// stand-ins: node/edge counts, dimension, classes, and the scaled memory
// footprints of topology and features.
func Table1(_ context.Context, w io.Writer, o Opts) error {
	fmt.Fprintln(w, "Table 1: datasets (scaled 1:1000; memory in scaled-GB = MiB)")
	fmt.Fprintf(w, "%-14s %10s %10s %5s %7s %10s %10s %10s\n",
		"Dataset", "#Node", "#Edge", "Dim", "#Class", "Topo", "Feat", "Total")
	for _, spec := range []gen.Spec{gen.Papers(), gen.Twitter(), gen.Friendster(), gen.MAG240M()} {
		edges := int64(2 * (spec.Nodes - 1) * spec.EdgesPerNode)
		topo := float64(edges*4) / float64(trainsim.GB)
		feat := float64(spec.Nodes*spec.Dim*4) / float64(trainsim.GB)
		fmt.Fprintf(w, "%-14s %10d %10d %5d %7d %9.1fG %9.1fG %9.1fG\n",
			spec.Name, spec.Nodes, edges, spec.Dim, spec.Classes, topo, feat, topo+feat)
	}
	return nil
}

// Fig2 prints sampling time for PyG+, Ginex, and GNNDrive in '-only'
// (sample stage alone) and '-all' (full SET pipeline) modes across
// feature dimensions — the memory-contention study.
func Fig2(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	dims := []int{64, 128, 256, 512}
	if o.Quick {
		dims = []int{64, 128, 512}
	}
	systems := []trainsim.SystemKind{trainsim.PyGPlus, trainsim.Ginex, trainsim.GNNDriveGPU}
	fmt.Fprintln(w, "Fig 2: sampling time (s), papers100m-s + GraphSAGE; '-only' vs '-all'")
	fmt.Fprintf(w, "%-18s", "dim")
	for _, d := range dims {
		fmt.Fprintf(w, "%10d", d)
	}
	fmt.Fprintln(w)
	for _, sys := range systems {
		for _, mode := range []string{"-only", "-all"} {
			fmt.Fprintf(w, "%-18s", sys.String()+mode)
			for _, dim := range dims {
				cfg := trainsim.Config{Dataset: gen.Papers(), Dim: dim,
					Model: nn.GraphSAGE, Scale: o.Scale}
				var d time.Duration
				var err error
				if mode == "-only" {
					d, err = trainsim.SampleOnly(ctx, cfg, sys)
				} else {
					// The summed sample-stage time while the whole
					// pipeline runs.
					var res trainsim.Result
					if res, err = trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: 1}); err == nil {
						d = res.Epochs[0].Sample
					}
				}
				if err != nil {
					fmt.Fprintf(w, "%10s", classify(err))
				} else {
					fmt.Fprintf(w, "%9.2fs", d.Seconds())
				}
			}
			fmt.Fprintln(w)
		}
	}
	return ctx.Err()
}

// Fig3 prints the CPU-utilization / GPU-utilization / I/O-wait time
// series of the three baselines over three epochs.
func Fig3(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	return utilSeries(ctx, w, o, "Fig 3", []trainsim.SystemKind{
		trainsim.PyGPlus, trainsim.Ginex, trainsim.Marius,
	})
}

// Fig11 prints the same time series for GNNDrive's GPU and CPU variants.
func Fig11(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	return utilSeries(ctx, w, o, "Fig 11", []trainsim.SystemKind{
		trainsim.GNNDriveGPU, trainsim.GNNDriveCPU,
	})
}

func utilSeries(ctx context.Context, w io.Writer, o Opts, title string, systems []trainsim.SystemKind) error {
	fmt.Fprintf(w, "%s: utilization over 3 epochs, papers100m-s + GraphSAGE (window=200ms)\n", title)
	for _, sys := range systems {
		cfg := trainsim.Config{Dataset: gen.Papers(), Model: nn.GraphSAGE, Scale: o.Scale}
		res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: 3, SampleUtil: 200 * time.Millisecond})
		if err != nil {
			fmt.Fprintf(w, "%s: %s\n", sys, classify(err))
			continue
		}
		fmt.Fprintf(w, "-- %s (%d windows; t(s) cpu%% gpu%% iowait%%)\n", sys, len(res.Windows))
		var cpuSum, gpuSum, ioSum float64
		for i, win := range res.Windows {
			if i%2 == 0 { // print every other window to keep output readable
				fmt.Fprintf(w, "  %6.2f %5.1f %5.1f %5.1f\n",
					win.At.Seconds(), 100*win.CPUUtil, 100*win.GPUUtil, 100*win.IOWaitRatio)
			}
			cpuSum += win.CPUUtil
			gpuSum += win.GPUUtil
			ioSum += win.IOWaitRatio
		}
		n := float64(len(res.Windows))
		if n > 0 {
			fmt.Fprintf(w, "  avg: cpu=%.1f%% gpu=%.1f%% iowait=%.1f%%\n",
				100*cpuSum/n, 100*gpuSum/n, 100*ioSum/n)
		}
	}
	return ctx.Err()
}

// Fig8 prints the epoch runtime across feature dimensions for every
// dataset x model x system combination.
func Fig8(ctx context.Context, w io.Writer, o Opts) error {
	dims := []int{64, 128, 256, 512}
	if o.Quick {
		dims = []int{64, 128, 512}
	}
	return sweep(ctx, w, o, "Fig 8: epoch runtime (s) vs feature dimension", "dim", dims,
		func(spec gen.Spec, model nn.ModelKind, dim int) trainsim.Config {
			return trainsim.Config{Dataset: spec, Dim: dim, Model: model}
		})
}

// Fig9 prints the epoch runtime across host-memory capacities at
// dimension 512.
func Fig9(ctx context.Context, w io.Writer, o Opts) error {
	mems := []int{8, 16, 32, 64, 128}
	if o.Quick {
		mems = []int{8, 32, 128}
	}
	return sweep(ctx, w, o, "Fig 9: epoch runtime (s) vs host memory (scaled GB), dim=512", "mem(GB)", mems,
		func(spec gen.Spec, model nn.ModelKind, m int) trainsim.Config {
			return trainsim.Config{Dataset: spec, Dim: 512, Model: model, HostMemoryGB: m}
		})
}

// Fig10 prints the epoch runtime across mini-batch sizes (the paper's
// 500-4000 at 1:20 scale: 25-200).
func Fig10(ctx context.Context, w io.Writer, o Opts) error {
	batches := []int{25, 50, 100, 200}
	return sweep(ctx, w, o, "Fig 10: epoch runtime (s) vs mini-batch size (paper size = 20x)", "batch", batches,
		func(spec gen.Spec, model nn.ModelKind, b int) trainsim.Config {
			return trainsim.Config{Dataset: spec, Model: model, BatchSize: b}
		})
}

// sweep prints one epoch-runtime table per dataset x model: a row per
// system, a column per x, each cell run with cell(spec, model, x) at the
// run's scale. Each dataset's cached cells are dropped before the next
// dataset is built.
func sweep(ctx context.Context, w io.Writer, o Opts, title, xLabel string, xs []int,
	cell func(spec gen.Spec, model nn.ModelKind, x int) trainsim.Config) error {
	o = o.fill()
	fmt.Fprintln(w, title)
	for _, spec := range datasetsFor(o.Quick) {
		for _, model := range modelsFor(o.Quick) {
			fmt.Fprintf(w, "-- %s / %s\n", spec.Name, model)
			fmt.Fprintf(w, "%-14s", xLabel)
			for _, x := range xs {
				fmt.Fprintf(w, "%12d", x)
			}
			fmt.Fprintln(w)
			for _, sys := range []trainsim.SystemKind{trainsim.GNNDriveGPU, trainsim.GNNDriveCPU, trainsim.Ginex, trainsim.PyGPlus} {
				fmt.Fprintf(w, "%-14s", sys)
				for _, x := range xs {
					cfg := cell(spec, model, x)
					cfg.Scale = o.Scale
					d, fail := runCell(ctx, cfg, sys, o.Epochs)
					fmt.Fprintf(w, "%12s", fmtCell(d, fail))
				}
				fmt.Fprintln(w)
			}
		}
		trainsim.DropDatasets()
	}
	return ctx.Err()
}

// Fig12 prints GNNDrive's epoch runtime as the feature buffer grows from
// 1x to 8x of the minimum working set.
func Fig12(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	muls := []float64{1, 2, 4, 8}
	fmt.Fprintln(w, "Fig 12: GNNDrive epoch runtime (s) vs feature-buffer size (x of Ne*Mb)")
	specs := []gen.Spec{gen.Twitter(), gen.Papers()}
	for _, spec := range specs {
		for _, sys := range []trainsim.SystemKind{trainsim.GNNDriveGPU, trainsim.GNNDriveCPU} {
			fmt.Fprintf(w, "%-30s", spec.Name+"/"+sys.String())
			for _, m := range muls {
				cfg := trainsim.Config{Dataset: spec, Model: nn.GraphSAGE,
					FeatureBufferX: m, Scale: o.Scale}
				d, fail := runCell(ctx, cfg, sys, o.Epochs)
				fmt.Fprintf(w, "%12s", fmtCell(d, fail))
			}
			fmt.Fprintln(w)
		}
	}
	return ctx.Err()
}
