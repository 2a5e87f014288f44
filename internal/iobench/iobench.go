// Package iobench is the fio-equivalent micro-benchmark driver used by
// Appendix B's study (Fig. B.1) and the cmd/iobench CLI: random fixed-size
// reads against a storage backend (the simulated SSD or a real file,
// opened by name through Open),
// synchronously with N threads or asynchronously with one thread at I/O
// depth D, in direct or buffered (page-cached) mode, reporting bandwidth
// and mean latency.
package iobench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
	"gnndrive/internal/uring"
)

// Spec describes one measurement point.
type Spec struct {
	// FileBytes is the target region size; reads are 512 B random.
	FileBytes int64
	// Reads is the total number of reads for the point.
	Reads int
	// Threads > 0 selects synchronous mode with that many threads;
	// otherwise Depth selects asynchronous mode on one thread.
	Threads int
	Depth   int
	// Buffered reads through a page cache (sync) or without sector
	// alignment (async) instead of direct I/O.
	Buffered bool
	// CachePool bounds the page cache for buffered sync reads.
	CachePool int64
	Seed      uint64
}

// Result is one measurement.
type Result struct {
	Bandwidth float64 // bytes/second
	MeanLat   time.Duration
}

// MBps returns the bandwidth in MB/s.
func (r Result) MBps() float64 { return r.Bandwidth / 1e6 }

// Run executes the spec against dev; cancelling ctx fails the reads still
// to come.
func Run(ctx context.Context, dev storage.Backend, spec Spec) (Result, error) {
	if spec.FileBytes <= 0 || spec.Reads <= 0 {
		return Result{}, fmt.Errorf("iobench: bad spec %+v", spec)
	}
	if spec.Threads > 0 {
		return runSync(ctx, dev, spec)
	}
	if spec.Depth <= 0 {
		return Result{}, fmt.Errorf("iobench: need Threads or Depth")
	}
	return runAsync(ctx, dev, spec)
}

func runSync(ctx context.Context, dev storage.Backend, spec Spec) (Result, error) {
	var file *pagecache.File
	if spec.Buffered {
		pool := spec.CachePool
		if pool == 0 {
			pool = 8 << 20
		}
		budget := hostmem.NewBudget(pool)
		cache := pagecache.New(dev, budget)
		file = cache.NewFile(0, spec.FileBytes)
	}
	per := spec.Reads / spec.Threads
	if per == 0 {
		per = 1
	}
	var latSum atomic.Int64
	var firstErr atomic.Int64 // 0 ok, 1 failed
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < spec.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := tensor.NewRNG(spec.Seed + uint64(t)*977 + 3)
			// Sector-aligned so a file backend's O_DIRECT path is used.
			buf := storage.AlignedBuf(512, 512)
			for i := 0; i < per; i++ {
				off := int64(rng.Intn(int(spec.FileBytes/512))) * 512
				t0 := time.Now()
				var err error
				if file != nil {
					_, err = file.ReadCtx(ctx, off, buf)
				} else {
					_, err = dev.ReadDirectCtx(ctx, buf, off)
				}
				if err != nil {
					firstErr.Store(1)
					return
				}
				latSum.Add(int64(time.Since(t0)))
			}
		}(t)
	}
	wg.Wait()
	if firstErr.Load() != 0 {
		return Result{}, fmt.Errorf("iobench: read failed")
	}
	elapsed := time.Since(start)
	n := per * spec.Threads
	return Result{
		Bandwidth: float64(n) * 512 / elapsed.Seconds(),
		MeanLat:   time.Duration(latSum.Load() / int64(n)),
	}, nil
}

func runAsync(ctx context.Context, dev storage.Backend, spec Spec) (Result, error) {
	ring := uring.NewRing(dev, spec.Depth)
	rng := tensor.NewRNG(spec.Seed + uint64(spec.Depth)*31 + 7)
	// One buffer per ring slot; free lists the ones no read is in flight
	// into. The CQE's user cookie names the buffer a completion returns
	// (completions arrive out of order, so submit order cannot).
	bufs := make([][]byte, spec.Depth)
	free := make([]int, spec.Depth)
	for i := range bufs {
		bufs[i] = storage.AlignedBuf(512, 512)
		free[i] = i
	}
	var latSum time.Duration
	submitted, collected := 0, 0
	start := time.Now()
	for collected < spec.Reads {
		// Refill every free slot, then publish the whole batch with one
		// Flush — on a batching backend (linuring) that is a single
		// io_uring_enter regardless of how many reads were queued.
		for submitted < spec.Reads && len(free) > 0 {
			off := int64(rng.Intn(int(spec.FileBytes/512))) * 512
			slot := free[len(free)-1]
			var err error
			if spec.Buffered {
				err = ring.QueueBufferedReadCtx(ctx, bufs[slot], off, uint64(slot))
			} else {
				err = ring.QueueReadCtx(ctx, bufs[slot], off, uint64(slot))
			}
			if err != nil {
				return Result{}, err
			}
			free = free[:len(free)-1]
			submitted++
		}
		ring.Flush()
		// Collect one completion blocking, then drain whatever else has
		// already landed so the next refill is as wide as possible.
		c := ring.WaitCQE()
		for ok := true; ok; c, ok = ring.PeekCQE() {
			if c.Err != nil {
				return Result{}, c.Err
			}
			free = append(free, int(c.User))
			latSum += c.Latency
			collected++
		}
	}
	elapsed := time.Since(start)
	return Result{
		Bandwidth: float64(spec.Reads) * 512 / elapsed.Seconds(),
		MeanLat:   latSum / time.Duration(spec.Reads),
	}, nil
}

// Open builds the backend a measurement reads, by name: "sim" (the modeled
// SSD at time scale scale), "file" (a real file through the worker pool) or
// "linuring" (a real file through io_uring, degrading to the file pool
// where the kernel refuses). path backs the real-file backends; empty
// means a temp file. A real-file backend writes one line to w naming what
// serves the reads. The returned close closes the backend and removes any
// temp file. It is the one backend-by-name path of cmd/iobench and Fig. B.1.
func Open(w io.Writer, name, path string, size int64, scale float64) (storage.Backend, func(), error) {
	switch name {
	case "", "sim":
		cfg := sim.DefaultConfig()
		cfg.TimeScale = scale
		dev := sim.New(size, cfg)
		return dev, func() { dev.Close() }, nil
	case "file", "linuring":
	default:
		return nil, nil, fmt.Errorf("iobench: unknown backend %q (want sim, file, or linuring)", name)
	}
	remove := func() {}
	if path == "" {
		tf, err := os.CreateTemp("", "gnndrive-iobench-*.img")
		if err != nil {
			return nil, nil, err
		}
		tf.Close()
		path = tf.Name()
		remove = func() { os.Remove(path) }
	}
	dev, err := openFile(w, name, path, size)
	if err != nil {
		remove()
		return nil, nil, err
	}
	return dev, func() { dev.Close(); remove() }, nil
}

// openFile opens the real-file backend name over path and reports which
// backend serves the reads.
func openFile(w io.Writer, name, path string, size int64) (storage.Backend, error) {
	if name == "file" {
		fb, err := file.Create(path, size, file.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "backend: file %s (O_DIRECT active: %v)\n", path, fb.DirectActive())
		return fb, nil
	}
	logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	dev, err := linuring.FallbackFactory(path, linuring.Options{Logf: logf})(size)
	if err != nil {
		return nil, err
	}
	if rb, ok := dev.(linuring.RingStatser); ok {
		fmt.Fprintf(w, "backend: linuring %s (O_DIRECT active: %v, ring entries: %d)\n",
			path, rb.DirectActive(), rb.RingStats().Entries)
	} else {
		fmt.Fprintf(w, "backend: linuring unavailable, serving via file %s\n", path)
	}
	return dev, nil
}
