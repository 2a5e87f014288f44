// Command iobench is the repository's fio equivalent (Appendix B): random
// 512 B reads against the simulated SSD or a real file, synchronous with
// N threads or asynchronous at I/O depth D, direct or buffered:
//
//	iobench -threads 8
//	iobench -depth 64 -buffered
//	iobench -sweep                        # the full Fig. B.1 grid
//	iobench -backend file -depth 64       # async direct reads, real file
//	iobench -backend file -data-file /mnt/nvme/bench.img -sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnndrive/internal/experiments"
	"gnndrive/internal/iobench"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
)

func main() {
	log.SetFlags(0)
	threads := flag.Int("threads", 0, "synchronous reader threads (exclusive with -depth)")
	depth := flag.Int("depth", 0, "async I/O depth on one thread")
	buffered := flag.Bool("buffered", false, "buffered instead of direct I/O")
	fileMB := flag.Int64("file-mb", 48, "target region size in MiB")
	reads := flag.Int("reads", 12000, "total reads")
	scale := flag.Float64("scale", 2.0, "time-model stretch")
	sweep := flag.Bool("sweep", false, "run the full Fig. B.1 grid instead")
	backend := flag.String("backend", "sim", "storage backend: sim (modeled SSD), file (real file), or linuring (real file via io_uring, falls back to file)")
	dataFile := flag.String("data-file", "", "backing file for -backend file (default: a temp file)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep {
		opts := experiments.Opts{Scale: *scale, Backend: *backend, DataFile: *dataFile}
		if err := experiments.FigB1(ctx, os.Stdout, opts); err != nil {
			log.Fatal(err)
		}
		return
	}
	if (*threads == 0) == (*depth == 0) {
		log.Fatal("specify exactly one of -threads or -depth (or -sweep)")
	}
	var dev storage.Backend
	switch *backend {
	case "sim":
		cfg := sim.DefaultConfig()
		cfg.TimeScale = *scale
		dev = iobench.NewDevice(*fileMB<<20, cfg)
	case "file":
		path := *dataFile
		if path == "" {
			f, err := os.CreateTemp("", "gnndrive-iobench-*.img")
			if err != nil {
				log.Fatal(err)
			}
			path = f.Name()
			f.Close()
			defer os.Remove(path)
		}
		fb, err := file.Create(path, *fileMB<<20, file.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("backend: file %s (O_DIRECT active: %v)\n", path, fb.DirectActive())
		dev = fb
	case "linuring":
		path := *dataFile
		if path == "" {
			f, err := os.CreateTemp("", "gnndrive-iobench-*.img")
			if err != nil {
				log.Fatal(err)
			}
			path = f.Name()
			f.Close()
			defer os.Remove(path)
		}
		lb, err := linuring.FallbackFactory(path, linuring.Options{Logf: log.Printf})(*fileMB << 20)
		if err != nil {
			log.Fatal(err)
		}
		if rb, ok := lb.(linuring.RingStatser); ok {
			fmt.Printf("backend: linuring %s (O_DIRECT active: %v, ring entries: %d)\n",
				path, rb.DirectActive(), rb.RingStats().Entries)
		} else {
			fmt.Printf("backend: linuring unavailable, serving via file %s\n", path)
		}
		dev = lb
	default:
		log.Fatalf("unknown -backend %q (want sim, file, or linuring)", *backend)
	}
	defer dev.Close()
	res, err := iobench.Run(ctx, dev, iobench.Spec{
		FileBytes: *fileMB << 20, Reads: *reads,
		Threads: *threads, Depth: *depth, Buffered: *buffered,
	})
	if err != nil {
		log.Fatal(err)
	}
	mode := "direct"
	if *buffered {
		mode = "buffered"
	}
	if *threads > 0 {
		fmt.Printf("sync %s, %d threads: %.1f MB/s, mean latency %v\n",
			mode, *threads, res.MBps(), res.MeanLat.Round(time.Microsecond))
	} else {
		fmt.Printf("async %s, depth %d: %.1f MB/s, mean latency %v\n",
			mode, *depth, res.MBps(), res.MeanLat.Round(time.Microsecond))
	}
}
