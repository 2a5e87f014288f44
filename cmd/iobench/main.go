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
	dataFile := flag.String("data-file", "", "backing file for -backend file or linuring (default: a temp file)")
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
	dev, closeDev, err := iobench.Open(os.Stdout, *backend, *dataFile, *fileMB<<20, *scale)
	if err != nil {
		log.Fatal(err)
	}
	defer closeDev()
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
