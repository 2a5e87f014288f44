package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/nn"
	"gnndrive/internal/trainsim"
)

// Fig13 prints GNNDrive's multi-GPU scalability: epoch time vs number of
// data-parallel workers on the K80 machine (256 "GB" host memory).
func Fig13(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	workers := []int{1, 2, 4, 6, 8}
	specs := []gen.Spec{gen.MAG240M(), gen.Papers()}
	if o.Quick {
		specs = []gen.Spec{gen.Papers()}
	}
	fmt.Fprintln(w, "Fig 13: GNNDrive multi-GPU scalability (K80s, 256GB host), GraphSAGE")
	for _, spec := range specs {
		fmt.Fprintf(w, "%-14s", spec.Name)
		var base time.Duration
		for _, nw := range workers {
			cfg := trainsim.Config{Dataset: spec, Model: nn.GraphSAGE,
				HostMemoryGB: 256, Scale: o.Scale}
			d, err := trainsim.RunParallel(ctx, cfg, nw, device.TeslaK80(), o.Epochs)
			if err != nil {
				fmt.Fprintf(w, "%14s", classify(err))
				continue
			}
			if nw == 1 {
				base = d
			}
			speedup := 0.0
			if d > 0 {
				speedup = base.Seconds() / d.Seconds()
			}
			fmt.Fprintf(w, "  %6.2fs(%.2fx)", d.Seconds(), speedup)
		}
		fmt.Fprintln(w)
		trainsim.DropDatasets()
	}
	return ctx.Err()
}

// Fig14 prints time-to-accuracy curves with real float32 training:
// cumulative wall time and validation accuracy per epoch for each system,
// plus GNNDrive with mini-batch reordering disabled (the convergence
// claim of §5.3).
func Fig14(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	epochs := o.Epochs
	if epochs < 3 {
		epochs = 3
	}
	hidden := 256
	if o.Quick {
		hidden = 64
	}

	fmt.Fprintln(w, "Fig 14(a): time-to-accuracy, papers100m-s + GraphSAGE (real training)")
	systems := []trainsim.SystemKind{trainsim.GNNDriveGPU, trainsim.GNNDriveCPU, trainsim.Ginex, trainsim.PyGPlus}
	if o.Quick {
		systems = []trainsim.SystemKind{trainsim.GNNDriveGPU, trainsim.GNNDriveCPU, trainsim.Ginex}
	}
	for _, sys := range systems {
		cfg := trainsim.Config{Dataset: gen.Papers(), Model: nn.GraphSAGE,
			RealTrain: true, Hidden: hidden, Scale: o.Scale}
		printCurve(ctx, w, sys.String(), cfg, sys, epochs)
	}
	// Reordering ablation: same pipeline forced in-order.
	cfg := trainsim.Config{Dataset: gen.Papers(), Model: nn.GraphSAGE,
		RealTrain: true, Hidden: hidden, Scale: o.Scale, InOrder: true}
	printCurve(ctx, w, "GNNDrive-GPU(in-order)", cfg, trainsim.GNNDriveGPU, epochs)

	fmt.Fprintln(w, "Fig 14(b): time-to-accuracy, mag240m-s + GraphSAGE (real training)")
	bSystems := []trainsim.SystemKind{trainsim.GNNDriveGPU}
	if !o.Quick {
		bSystems = append(bSystems, trainsim.GNNDriveCPU, trainsim.Ginex)
	}
	for _, sys := range bSystems {
		cfg := trainsim.Config{Dataset: gen.MAG240M(), Model: nn.GraphSAGE,
			RealTrain: true, Hidden: hidden, Scale: o.Scale, TrainLimit: 4000}
		printCurve(ctx, w, sys.String(), cfg, sys, epochs)
	}
	trainsim.DropDatasets()
	return ctx.Err()
}

func printCurve(ctx context.Context, w io.Writer, label string, cfg trainsim.Config, sys trainsim.SystemKind, epochs int) {
	res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: epochs, EvalVal: true})
	if err != nil {
		fmt.Fprintf(w, "%-24s %s\n", label, classify(err))
		return
	}
	fmt.Fprintf(w, "%-24s", label)
	var cum time.Duration
	for i, e := range res.Epochs {
		cum += e.Total
		acc := 0.0
		if i < len(res.ValAcc) {
			acc = res.ValAcc[i]
		}
		fmt.Fprintf(w, "  (%.1fs,%.1f%%)", cum.Seconds(), 100*acc)
	}
	fmt.Fprintln(w)
}

// Table2 prints the MariusGNN comparison: data preparation, training, and
// overall per-epoch time for Papers100M and MAG240M, with MariusGNN at 32
// and 128 scaled-GB (Table 2, including the OOM cells).
func Table2(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	type row struct {
		name string
		sys  trainsim.SystemKind
		mem  int
	}
	rows := []row{
		{"GNNDrive-GPU", trainsim.GNNDriveGPU, 32},
		{"GNNDrive-CPU", trainsim.GNNDriveCPU, 32},
		{"PyG+", trainsim.PyGPlus, 32},
		{"Ginex", trainsim.Ginex, 32},
		{"MariusGNN-32G", trainsim.Marius, 32},
		{"MariusGNN-128G", trainsim.Marius, 128},
	}
	specs := []gen.Spec{gen.Papers(), gen.MAG240M()}
	fmt.Fprintln(w, "Table 2: per-epoch runtime (s): data preparation / training / overall")
	fmt.Fprintf(w, "%-16s", "")
	for _, s := range specs {
		fmt.Fprintf(w, " | %-26s", s.Name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.name)
		for _, spec := range specs {
			if o.Quick && r.sys == trainsim.PyGPlus && spec.Name == gen.MAG240M().Name {
				fmt.Fprintf(w, " | %-26s", "SKIP(quick)")
				continue
			}
			cfg := trainsim.Config{Dataset: spec, Model: nn.GraphSAGE,
				HostMemoryGB: r.mem, Scale: o.Scale}
			res, err := trainsim.RunCtx(ctx, cfg, r.sys, trainsim.RunOptions{Epochs: o.Epochs})
			if err != nil {
				fmt.Fprintf(w, " | %-26s", classify(err))
				continue
			}
			prep := res.AvgPrep()
			total := res.AvgEpoch()
			fmt.Fprintf(w, " | %7.2f /%7.2f /%7.2f ", prep.Seconds(), (total - prep).Seconds(), total.Seconds())
		}
		fmt.Fprintln(w)
	}
	trainsim.DropDatasets()
	return ctx.Err()
}

// Ablations measures GNNDrive with each design choice disabled: the
// asynchronous extraction, direct I/O, mini-batch reordering, and the
// full-size feature buffer.
func Ablations(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	fmt.Fprintln(w, "Ablations: GNNDrive-GPU epoch runtime (s), papers100m-s + GraphSAGE")
	type variant struct {
		name string
		mut  func(*trainsim.Config)
	}
	variants := []variant{
		{"default (async+direct+reorder)", func(c *trainsim.Config) {}},
		{"sync extraction", func(c *trainsim.Config) { c.SyncExtraction = true }},
		{"buffered I/O", func(c *trainsim.Config) { c.BufferedIO = true }},
		{"in-order pipeline", func(c *trainsim.Config) { c.InOrder = true }},
		{"minimal feature buffer (1x Ne*Mb)", func(c *trainsim.Config) { c.FeatureBufferX = 1 }},
		{"GPUDirect storage (4KiB granularity)", func(c *trainsim.Config) { c.GPUDirect = true }},
	}
	for _, v := range variants {
		cfg := trainsim.Config{Dataset: gen.Papers(), Model: nn.GraphSAGE, Scale: o.Scale}
		v.mut(&cfg)
		d, fail := runCell(ctx, cfg, trainsim.GNNDriveGPU, o.Epochs)
		fmt.Fprintf(w, "%-36s %12s\n", v.name, fmtCell(d, fail))
	}
	return ctx.Err()
}
