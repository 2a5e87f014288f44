package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/tensor"
	"gnndrive/internal/trainsim"
	"gnndrive/internal/uring"
)

// FigB1 reproduces Appendix B's fio study: random 512 B reads of a large
// file, comparing (a) synchronous reads with 1-64 threads against (b)
// asynchronous reads with I/O depth 1-128 on a single thread, in direct
// and buffered modes, reporting bandwidth and average latency for each
// point. With Opts.Backend "file" or "linuring" the sweep runs against a
// real file (Opts.DataFile or a temp file) instead of the simulated SSD,
// so the same grid measures actual disk behavior.
func FigB1(ctx context.Context, w io.Writer, o Opts) error {
	o = o.fill()
	const fileBytes = 48 << 20 // the "30 GB file" at scale
	readsTotal := 12000
	if o.Quick {
		readsTotal = 6000
	}

	logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
	dev, closeDev, err := trainsim.OpenBackend(trainsim.Config{
		Backend: o.Backend, DataFile: o.DataFile, Scale: o.Scale, Logf: logf,
	}, fileBytes)
	if err != nil {
		return err
	}
	defer closeDev()
	if d, ok := dev.(interface{ DirectActive() bool }); ok {
		// Name the backend that serves the reads: a vetoed io_uring
		// serves through the file pool.
		name := o.Backend
		if _, ok := dev.(*file.Backend); ok {
			name = "file"
		}
		fmt.Fprintf(w, "backend: %s (O_DIRECT active: %v)\n", strings.TrimSpace(name+" "+o.DataFile), d.DirectActive())
	}

	measure := func(s ioSpec) (float64, time.Duration) {
		bw, lat, err := runIO(ctx, dev, s, readsTotal)
		if err != nil {
			return 0, 0
		}
		return bw / 1e6, lat
	}

	fmt.Fprintln(w, "Fig B.1: random 512B reads; bandwidth (MB/s) and avg latency")
	fmt.Fprintln(w, "-- (a/c) synchronous, N threads")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "threads", "dir MB/s", "dir lat", "buf MB/s", "buf lat")
	for _, threads := range []int{1, 2, 4, 8, 16, 32, 64} {
		db, dl := measure(ioSpec{threads: threads})
		bb, bl := measure(ioSpec{threads: threads, buffered: true})
		fmt.Fprintf(w, "%-10d %12.1f %12v %12.1f %12v\n",
			threads, db, dl.Round(time.Microsecond), bb, bl.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "-- (b/d) asynchronous, 1 thread, I/O depth D")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "depth", "dir MB/s", "dir lat", "buf MB/s", "buf lat")
	for _, depth := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		db, dl := measure(ioSpec{depth: depth})
		bb, bl := measure(ioSpec{depth: depth, buffered: true})
		fmt.Fprintf(w, "%-10d %12.1f %12v %12.1f %12v\n",
			depth, db, dl.Round(time.Microsecond), bb, bl.Round(time.Microsecond))
	}
	return ctx.Err()
}

// ioSpec is one Fig. B.1 point: threads > 0 selects synchronous reads on
// that many threads, otherwise one thread keeps depth reads in flight.
// buffered reads through a page cache (sync) or without sector alignment
// (async) instead of direct I/O.
type ioSpec struct {
	threads, depth int
	buffered       bool
	seed           uint64
}

// runIO issues reads random 512 B reads spread over dev's capacity and
// returns the bandwidth in bytes/second and the mean read latency;
// cancelling ctx fails the reads still to come.
func runIO(ctx context.Context, dev storage.Backend, s ioSpec, reads int) (float64, time.Duration, error) {
	if s.threads > 0 {
		return runSync(ctx, dev, s, reads)
	}
	return runAsync(ctx, dev, s, reads)
}

func runSync(ctx context.Context, dev storage.Backend, s ioSpec, reads int) (float64, time.Duration, error) {
	size := dev.Capacity()
	var cached *pagecache.File
	if s.buffered {
		cached = pagecache.New(dev, hostmem.NewBudget(8<<20)).NewFile(0, size)
	}
	per := max(reads/s.threads, 1)
	var latSum atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < s.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := tensor.NewRNG(s.seed + uint64(t)*977 + 3)
			// Sector-aligned so a file backend's O_DIRECT path is used.
			buf := storage.AlignedBuf(512, 512)
			for i := 0; i < per; i++ {
				off := int64(rng.Intn(int(size/512))) * 512
				t0 := time.Now()
				var err error
				if cached != nil {
					_, err = cached.ReadCtx(ctx, off, buf)
				} else {
					_, err = dev.ReadDirectCtx(ctx, buf, off)
				}
				if err != nil {
					failed.Store(true)
					return
				}
				latSum.Add(int64(time.Since(t0)))
			}
		}(t)
	}
	wg.Wait()
	if failed.Load() {
		return 0, 0, fmt.Errorf("experiments: read failed")
	}
	n := per * s.threads
	return float64(n) * 512 / time.Since(start).Seconds(), time.Duration(latSum.Load() / int64(n)), nil
}

func runAsync(ctx context.Context, dev storage.Backend, s ioSpec, reads int) (float64, time.Duration, error) {
	size := dev.Capacity()
	ring := uring.NewRing(dev, s.depth)
	rng := tensor.NewRNG(s.seed + uint64(s.depth)*31 + 7)
	// One buffer per ring slot; free lists the ones no read is in flight
	// into. The CQE's user cookie names the buffer a completion returns
	// (completions arrive out of order, so submit order cannot).
	bufs := make([][]byte, s.depth)
	free := make([]int, s.depth)
	for i := range bufs {
		bufs[i] = storage.AlignedBuf(512, 512)
		free[i] = i
	}
	var latSum time.Duration
	cqes := make([]uring.CQE, 0, s.depth)
	submitted, collected := 0, 0
	start := time.Now()
	for collected < reads {
		// Refill every free slot, then publish the whole batch with one
		// Flush — on a batching backend (linuring) that is a single
		// io_uring_enter regardless of how many reads were queued.
		for submitted < reads && len(free) > 0 {
			off := int64(rng.Intn(int(size/512))) * 512
			slot := free[len(free)-1]
			var err error
			if s.buffered {
				err = ring.QueueBufferedReadCtx(ctx, bufs[slot], off, uint64(slot))
			} else {
				err = ring.QueueReadCtx(ctx, bufs[slot], off, uint64(slot))
			}
			if err != nil {
				return 0, 0, err
			}
			free = free[:len(free)-1]
			submitted++
		}
		ring.Flush()
		// Collect one completion blocking, and with it whatever else has
		// already landed, so the next refill is as wide as possible.
		cqes = ring.WaitCQEs(cqes[:0])
		for _, c := range cqes {
			if c.Err != nil {
				return 0, 0, c.Err
			}
			free = append(free, int(c.User))
			latSum += c.Latency
			collected++
		}
	}
	return float64(reads) * 512 / time.Since(start).Seconds(), latSum / time.Duration(reads), nil
}
