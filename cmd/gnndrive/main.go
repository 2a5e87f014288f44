// Command gnndrive trains a GNN on a scaled dataset with any of the five
// systems the paper evaluates:
//
//	gnndrive -dataset papers100m-s -model sage -system gnndrive-gpu -epochs 3
//	gnndrive -dataset twitter-s -model gat -system ginex -mem 16
//	gnndrive -dataset tiny -system gnndrive-gpu -real -epochs 5
//	gnndrive -dataset tiny -backend file -data-file /mnt/nvme/tiny.img -epochs 1
//
// It prints a per-epoch stage breakdown (and loss/accuracy with -real).
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

	"gnndrive/internal/faults"
	"gnndrive/internal/gen"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/trainsim"
)

func main() {
	log.SetFlags(0)
	dataset := flag.String("dataset", "papers100m-s", "dataset name (see cmd/datagen)")
	model := flag.String("model", "sage", "model: sage, gcn, gat")
	system := flag.String("system", "gnndrive-gpu", "system: gnndrive-gpu, gnndrive-cpu, pyg+, ginex, marius")
	epochs := flag.Int("epochs", 1, "training epochs")
	mem := flag.Int("mem", 32, "host memory budget in scaled GB")
	dim := flag.Int("dim", 0, "override feature dimension")
	batch := flag.Int("batch", 0, "override mini-batch size")
	scale := flag.Float64("scale", 2.0, "time-model stretch")
	real := flag.Bool("real", false, "real float32 training instead of modeled compute")
	inorder := flag.Bool("inorder", false, "disable mini-batch reordering (1 sampler, 1 extractor)")
	limit := flag.Int("train-limit", 0, "truncate the training split to N nodes")
	hidden := flag.Int("hidden", 0, "override hidden dimension")
	seed := flag.Uint64("seed", 1, "random seed")
	faultTransient := flag.Float64("fault-transient", 0, "inject transient read errors at this rate (0..1)")
	faultShort := flag.Float64("fault-short", 0, "inject short reads at this rate (0..1)")
	faultStraggler := flag.Float64("fault-straggler", 0, "inject latency stragglers at this rate (0..1)")
	faultStragglerDelay := flag.Duration("fault-straggler-delay", 0, "extra latency per injected straggler (0 = injector default)")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "inject silent single-bit corruption at this rate (0..1; pair with -verify)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection schedule seed")
	verify := flag.Bool("verify", false, "checksum-verify every read with read-repair (storage integrity layer)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge reads still in flight after this long onto the buffered path (implies -verify)")
	breakerWindow := flag.Int("breaker-window", 0, "degradation breaker window in reads, 0 = off (implies -verify)")
	breakerTrip := flag.Float64("breaker-trip", 0, "unhealthy fraction of the window that trips the breaker (default 0.5)")
	breakerSlow := flag.Duration("breaker-slow", 0, "breaker counts reads slower than this as unhealthy (0 = errors only)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for crash-consistent run checkpoints (GNNDrive systems)")
	ckptEvery := flag.Int("checkpoint-every", 0, "also checkpoint every N trainer steps mid-epoch (requires -inorder)")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	stallDeadline := flag.Duration("stall-deadline", 0, "fail the epoch if the pipeline makes no progress for this long (0 = off)")
	backend := flag.String("backend", "sim", "storage backend: sim (modeled SSD), file (real file, direct I/O best-effort), or linuring (real file via io_uring, falls back to file)")
	dataFile := flag.String("data-file", "", "backing file for -backend file (default: a temp file)")
	layoutName := flag.String("layout", "strided", "feature layout: strided, or packed (offline batch-aware packing before training; see cmd/datagen -layout)")
	load := flag.String("load", "", "load this .gnnd container (with its .pidx/.crc sidecars) instead of generating; -dataset/-dim/-layout are ignored")
	flag.Parse()

	spec, err := gen.ByName(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := nn.ModelByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := systemByName(*system)
	if err != nil {
		log.Fatal(err)
	}
	cfg := trainsim.Config{
		Dataset: spec, Dim: *dim, HostMemoryGB: *mem, Model: kind,
		BatchSize: *batch, Scale: *scale, RealTrain: *real,
		Hidden: *hidden, Seed: *seed, InOrder: *inorder, TrainLimit: *limit,
		CheckpointDir: *ckptDir, CheckpointEverySteps: *ckptEvery,
		Resume: *resume, StallDeadline: *stallDeadline,
		Backend: *backend, DataFile: *dataFile, Logf: log.Printf,
		Layout: *layoutName, LoadFile: *load,
	}
	if *faultTransient > 0 || *faultShort > 0 || *faultStraggler > 0 || *faultCorrupt > 0 {
		cfg.Faults = &faults.Config{
			Seed:           *faultSeed,
			TransientRate:  *faultTransient,
			ShortReadRate:  *faultShort,
			StragglerRate:  *faultStraggler,
			StragglerDelay: *faultStragglerDelay,
			CorruptRate:    *faultCorrupt,
		}
	}
	if *verify || *hedgeAfter > 0 || *breakerWindow > 0 {
		cfg.Integrity = &integrity.Options{
			HedgeAfter: *hedgeAfter,
			Breaker: integrity.BreakerOptions{
				Window:    *breakerWindow,
				TripRate:  *breakerTrip,
				SlowAfter: *breakerSlow,
			},
			Logf: log.Printf,
		}
	} else if *faultCorrupt > 0 {
		log.Print("warning: -fault-corrupt without -verify: corrupted bytes reach training undetected")
	}
	src := spec.Name
	if *load != "" {
		src = *load
	}
	fmt.Printf("training %s on %s with %s (%d scaled-GB host memory, %s backend)\n",
		kind, src, sys, *mem, *backend)
	defer trainsim.DropDatasets()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: *epochs, EvalVal: *real})
	if err != nil {
		log.Fatalf("%s: %v", sys, err)
	}
	for i, e := range res.Epochs {
		fmt.Printf("epoch %d: total=%v prep=%v sample=%v extract=%v train=%v batches=%d read=%.1fMB reused=%.1fMB reads=%d amp=%.2f",
			i, e.Total.Round(time.Millisecond), e.Prep.Round(time.Millisecond),
			e.Sample.Round(time.Millisecond), e.Extract.Round(time.Millisecond),
			e.Train.Round(time.Millisecond), e.Batches,
			float64(e.BytesRead)/1e6, float64(e.BytesReused)/1e6,
			e.BackendReads, e.ReadAmplification())
		if cfg.Faults != nil {
			fmt.Printf(" retries=%d fallbacks=%d escalations=%d",
				e.Retries, e.Fallbacks, e.Escalations)
		}
		if cfg.Integrity != nil {
			fmt.Printf(" cksum-fail=%d repaired=%d hedges=%d/%d",
				e.Integrity.ChecksumFailures, e.Integrity.Repairs,
				e.Integrity.HedgesWon, e.Integrity.HedgesIssued)
		}
		if e.Stalls > 0 {
			fmt.Printf(" stalls=%d", e.Stalls)
		}
		if *real {
			fmt.Printf(" loss=%.4f acc=%.3f", e.Loss, e.Acc)
			if i < len(res.ValAcc) {
				fmt.Printf(" val=%.3f", res.ValAcc[i])
			}
		}
		fmt.Println()
	}
	fmt.Printf("average epoch: %v\n", res.AvgEpoch().Round(time.Millisecond))
	if cfg.Integrity != nil {
		var s storage.IntegrityStats
		for _, e := range res.Epochs {
			s = s.Add(e.Integrity)
		}
		fmt.Printf("integrity: verified=%d unverified=%d cksum-fail=%d repaired=%d quarantined=%d\n",
			s.VerifiedReads, s.UnverifiedReads, s.ChecksumFailures, s.Repairs, s.Quarantined)
		fmt.Printf("           hedges issued=%d won=%d cancelled=%d; breaker trips=%d recoveries=%d degraded=%d\n",
			s.HedgesIssued, s.HedgesWon, s.HedgesCancelled,
			s.BreakerTrips, s.BreakerRecoveries, s.BreakerDegraded)
	}
	if cfg.Faults != nil {
		fc := res.FaultCounts
		fmt.Printf("faults injected: transient=%d media=%d short=%d straggler=%d corrupt=%d\n",
			fc.Transient, fc.Media, fc.ShortRead, fc.Straggler, fc.SilentCorrupt)
	}
}

func systemByName(s string) (trainsim.SystemKind, error) {
	switch s {
	case "gnndrive-gpu", "gnndrive", "gpu":
		return trainsim.GNNDriveGPU, nil
	case "gnndrive-cpu", "cpu":
		return trainsim.GNNDriveCPU, nil
	case "pyg+", "pyg", "pygplus":
		return trainsim.PyGPlus, nil
	case "ginex":
		return trainsim.Ginex, nil
	case "marius", "mariusgnn":
		return trainsim.Marius, nil
	}
	return 0, fmt.Errorf("unknown system %q", s)
}
