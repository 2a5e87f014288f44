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
	var f cliFlags
	f.register(flag.CommandLine)
	flag.Parse()
	cfg, sys, err := f.lower(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	src := cfg.Dataset.Name
	if cfg.LoadFile != "" {
		src = cfg.LoadFile
	}
	fmt.Printf("training %s on %s with %s (%d scaled-GB host memory, %s backend)\n",
		cfg.Model, src, sys, cfg.HostMemoryGB, cfg.Backend)
	defer trainsim.DropDatasets()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := trainsim.RunCtx(ctx, cfg, sys, trainsim.RunOptions{Epochs: f.epochs, EvalVal: cfg.RealTrain})
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
			fmt.Printf(" cksum-fail=%d repaired=%d",
				e.Integrity.ChecksumFailures, e.Integrity.Repairs)
		}
		if e.Stalls > 0 {
			fmt.Printf(" stalls=%d", e.Stalls)
		}
		if cfg.RealTrain {
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
	}
	if cfg.Faults != nil {
		fc := res.FaultCounts
		fmt.Printf("faults injected: transient=%d media=%d short=%d straggler=%d corrupt=%d\n",
			fc.Transient, fc.Media, fc.ShortRead, fc.Straggler, fc.SilentCorrupt)
	}
}

// cliFlags is the parsed command line.
type cliFlags struct {
	dataset, model, system                     string
	backend, dataFile, layout, load, ckptDir   string
	epochs, mem, dim, batch, limit, hidden     int
	ckptEvery                                  int
	scale                                      float64
	real, inorder, verify, resume              bool
	seed, faultSeed                            uint64
	faultTransient, faultShort, faultStraggler float64
	faultCorrupt                               float64
	faultStragglerDelay, stallDeadline         time.Duration
}

// register declares every flag of the command on fs, writing into f.
func (f *cliFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.dataset, "dataset", "papers100m-s", "dataset name (see cmd/datagen)")
	fs.StringVar(&f.model, "model", "sage", "model: sage, gcn, gat")
	fs.StringVar(&f.system, "system", "gnndrive-gpu", "system: gnndrive-gpu, gnndrive-cpu, pyg+, ginex, marius")
	fs.IntVar(&f.epochs, "epochs", 1, "training epochs")
	fs.IntVar(&f.mem, "mem", 32, "host memory budget in scaled GB")
	fs.IntVar(&f.dim, "dim", 0, "override feature dimension")
	fs.IntVar(&f.batch, "batch", 0, "override mini-batch size")
	fs.Float64Var(&f.scale, "scale", 2.0, "time-model stretch")
	fs.BoolVar(&f.real, "real", false, "real float32 training instead of modeled compute")
	fs.BoolVar(&f.inorder, "inorder", false, "disable mini-batch reordering (1 sampler, 1 extractor)")
	fs.IntVar(&f.limit, "train-limit", 0, "truncate the training split to N nodes")
	fs.IntVar(&f.hidden, "hidden", 0, "override hidden dimension")
	fs.Uint64Var(&f.seed, "seed", 1, "random seed")
	fs.Float64Var(&f.faultTransient, "fault-transient", 0, "inject transient read errors at this rate (0..1)")
	fs.Float64Var(&f.faultShort, "fault-short", 0, "inject short reads at this rate (0..1)")
	fs.Float64Var(&f.faultStraggler, "fault-straggler", 0, "inject latency stragglers at this rate (0..1)")
	fs.DurationVar(&f.faultStragglerDelay, "fault-straggler-delay", 0, "extra latency per injected straggler (0 = injector default)")
	fs.Float64Var(&f.faultCorrupt, "fault-corrupt", 0, "inject silent single-bit corruption at this rate (0..1; pair with -verify)")
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "fault-injection schedule seed")
	fs.BoolVar(&f.verify, "verify", false, "checksum-verify every read with read-repair (storage integrity layer)")
	fs.StringVar(&f.ckptDir, "checkpoint-dir", "", "directory for crash-consistent run checkpoints (GNNDrive systems)")
	fs.IntVar(&f.ckptEvery, "checkpoint-every", 0, "also checkpoint every N trainer steps mid-epoch (requires -inorder)")
	fs.BoolVar(&f.resume, "resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	fs.DurationVar(&f.stallDeadline, "stall-deadline", 0, "fail the epoch if the pipeline makes no progress for this long (0 = off)")
	fs.StringVar(&f.backend, "backend", "sim", "storage backend: sim (modeled SSD), file (real file, direct I/O best-effort), or linuring (real file via io_uring, falls back to file)")
	fs.StringVar(&f.dataFile, "data-file", "", "backing file for -backend file (default: a temp file)")
	fs.StringVar(&f.layout, "layout", "strided", "feature layout: strided, or packed (offline batch-aware packing before training; see cmd/datagen -layout)")
	fs.StringVar(&f.load, "load", "", "load this .gnnd container (with its .pidx/.crc sidecars) instead of generating; -dataset/-dim/-layout are ignored")
}

// lower turns the parsed flags into the run's configuration and system.
// logf becomes the run's Logf and the integrity layer's, and receives
// the command's own warnings.
func (f *cliFlags) lower(logf func(format string, args ...any)) (trainsim.Config, trainsim.SystemKind, error) {
	spec, err := gen.ByName(f.dataset)
	if err != nil {
		return trainsim.Config{}, 0, err
	}
	kind, err := nn.ModelByName(f.model)
	if err != nil {
		return trainsim.Config{}, 0, err
	}
	sys, err := trainsim.SystemByName(f.system)
	if err != nil {
		return trainsim.Config{}, 0, err
	}
	cfg := trainsim.Config{
		Dataset: spec, Dim: f.dim, HostMemoryGB: f.mem, Model: kind,
		BatchSize: f.batch, Scale: f.scale, RealTrain: f.real,
		Hidden: f.hidden, Seed: f.seed, InOrder: f.inorder, TrainLimit: f.limit,
		CheckpointDir: f.ckptDir, CheckpointEverySteps: f.ckptEvery,
		Resume: f.resume, StallDeadline: f.stallDeadline,
		Backend: f.backend, DataFile: f.dataFile, Logf: logf,
		Layout: f.layout, LoadFile: f.load,
	}
	if f.faultTransient > 0 || f.faultShort > 0 || f.faultStraggler > 0 || f.faultCorrupt > 0 {
		cfg.Faults = &faults.Config{
			Seed:           f.faultSeed,
			TransientRate:  f.faultTransient,
			ShortReadRate:  f.faultShort,
			StragglerRate:  f.faultStraggler,
			StragglerDelay: f.faultStragglerDelay,
			CorruptRate:    f.faultCorrupt,
		}
	}
	if f.verify {
		cfg.Integrity = &integrity.Options{Logf: logf}
	} else if f.faultCorrupt > 0 {
		logf("warning: -fault-corrupt without -verify: corrupted bytes reach training undetected")
	}
	return cfg, sys, nil
}
