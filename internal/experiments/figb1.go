package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gnndrive/internal/iobench"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/sim"
)

// FigB1 reproduces Appendix B's fio study: random 512 B reads of a large
// file, comparing (a) synchronous reads with 1-64 threads against (b)
// asynchronous reads with I/O depth 1-128 on a single thread, in direct
// and buffered modes, reporting bandwidth and average latency for each
// point. With Opts.Backend "file" the sweep runs against a real file
// (Opts.DataFile or a temp file) instead of the simulated SSD, so the
// same grid measures actual disk behavior.
func FigB1(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	const fileBytes = 48 << 20 // the "30 GB file" at scale
	readsTotal := 12000
	if o.Quick {
		readsTotal = 6000
	}

	var dev storage.Backend
	switch o.Backend {
	case "", "sim":
		cfg := sim.DefaultConfig()
		cfg.TimeScale = o.Scale
		dev = iobench.NewDevice(fileBytes, cfg)
	case "file":
		path := o.DataFile
		if path == "" {
			path = filepath.Join(os.TempDir(), "gnndrive-iobench.img")
			defer os.Remove(path)
		}
		fb, err := file.Create(path, fileBytes, file.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "backend: file %s (O_DIRECT active: %v)\n", path, fb.DirectActive())
		dev = fb
	default:
		return fmt.Errorf("experiments: unknown backend %q (want sim or file)", o.Backend)
	}
	defer dev.Close()

	measure := func(spec iobench.Spec) (float64, time.Duration) {
		spec.FileBytes = fileBytes
		spec.Reads = readsTotal
		res, err := iobench.Run(ctx, dev, spec)
		if err != nil {
			return 0, 0
		}
		return res.MBps(), res.MeanLat
	}

	fmt.Fprintln(w, "Fig B.1: random 512B reads; bandwidth (MB/s) and avg latency")
	fmt.Fprintln(w, "-- (a/c) synchronous, N threads")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "threads", "dir MB/s", "dir lat", "buf MB/s", "buf lat")
	for _, threads := range []int{1, 2, 4, 8, 16, 32, 64} {
		db, dl := measure(iobench.Spec{Threads: threads})
		bb, bl := measure(iobench.Spec{Threads: threads, Buffered: true})
		fmt.Fprintf(w, "%-10d %12.1f %12v %12.1f %12v\n",
			threads, db, dl.Round(time.Microsecond), bb, bl.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "-- (b/d) asynchronous, 1 thread, I/O depth D")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "depth", "dir MB/s", "dir lat", "buf MB/s", "buf lat")
	for _, depth := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		db, dl := measure(iobench.Spec{Depth: depth})
		bb, bl := measure(iobench.Spec{Depth: depth, Buffered: true})
		fmt.Fprintf(w, "%-10d %12.1f %12v %12.1f %12v\n",
			depth, db, dl.Round(time.Microsecond), bb, bl.Round(time.Microsecond))
	}
	return ctx.Err()
}
