// Package gnndrive's top-level benchmarks regenerate the paper's tables
// and figures through the testing.B harness: one benchmark per table or
// figure, each printing the same rows the paper reports. They run the
// "quick" cells so `go test -bench=.` finishes in reasonable time on one
// core; `cmd/figures` runs the full sweeps.
//
// The reported ns/op is the wall time of regenerating the whole
// table/figure (the interesting numbers are in the printed rows).
package gnndrive

import (
	"context"
	"io"
	"os"
	"strconv"
	"testing"

	"gnndrive/internal/experiments"
	"gnndrive/internal/trainsim"
)

// benchOpts are the shared quick-mode settings. GNNDRIVE_BENCH_SCALE
// overrides the time-model stretch (default 2.0); smaller values make a
// full `go test -bench=.` pass cheaper at some loss of timing fidelity —
// the canonical recorded sweeps live in results_quick.txt either way.
func benchOpts() experiments.Opts {
	o := experiments.Opts{Quick: true, Epochs: 1}
	if s := os.Getenv("GNNDRIVE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			o.Scale = v
		}
	}
	return o
}

// out returns the benchmark's output sink: stdout under -v / default,
// discard under -benchquiet via GNNDRIVE_BENCH_QUIET.
func out() io.Writer {
	if os.Getenv("GNNDRIVE_BENCH_QUIET") != "" {
		return io.Discard
	}
	return os.Stdout
}

func runExp(b *testing.B, f func(context.Context, io.Writer, experiments.Opts) error) {
	b.Helper()
	w := out()
	for i := 0; i < b.N; i++ {
		if err := f(context.Background(), w, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	trainsim.DropDatasets()
}

// BenchmarkTable1 regenerates the dataset summary (paper Table 1).
func BenchmarkTable1(b *testing.B) { runExp(b, experiments.Table1) }

// BenchmarkFig2 regenerates the sampling-time memory-contention study.
func BenchmarkFig2(b *testing.B) { runExp(b, experiments.Fig2) }

// BenchmarkFig3 regenerates the baseline utilization time series.
func BenchmarkFig3(b *testing.B) { runExp(b, experiments.Fig3) }

// BenchmarkFig8 regenerates the epoch-runtime-vs-dimension sweep.
func BenchmarkFig8(b *testing.B) { runExp(b, experiments.Fig8) }

// BenchmarkFig9 regenerates the epoch-runtime-vs-host-memory sweep.
func BenchmarkFig9(b *testing.B) { runExp(b, experiments.Fig9) }

// BenchmarkFig10 regenerates the epoch-runtime-vs-batch-size sweep.
func BenchmarkFig10(b *testing.B) { runExp(b, experiments.Fig10) }

// BenchmarkFig11 regenerates GNNDrive's utilization time series.
func BenchmarkFig11(b *testing.B) { runExp(b, experiments.Fig11) }

// BenchmarkFig12 regenerates the feature-buffer-size sweep.
func BenchmarkFig12(b *testing.B) { runExp(b, experiments.Fig12) }

// BenchmarkFig13 regenerates the multi-GPU scalability study.
func BenchmarkFig13(b *testing.B) { runExp(b, experiments.Fig13) }

// BenchmarkFig14 regenerates the time-to-accuracy curves (real training).
func BenchmarkFig14(b *testing.B) { runExp(b, experiments.Fig14) }

// BenchmarkTable2 regenerates the MariusGNN comparison (paper Table 2).
func BenchmarkTable2(b *testing.B) { runExp(b, experiments.Table2) }

// BenchmarkFigB1 regenerates the sync/async I/O study (Appendix B).
func BenchmarkFigB1(b *testing.B) { runExp(b, experiments.FigB1) }
