package trainsim

import (
	"context"
	"testing"

	"gnndrive/internal/faults"
)

func TestRunWithTransientFaults(t *testing.T) {
	defer DropDatasets()
	clean, err := RunCtx(context.Background(), tinyCfg(), GNNDriveCPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyCfg()
	cfg.Faults = &faults.Config{Seed: 7, TransientRate: 0.01}
	res, err := RunCtx(context.Background(), cfg, GNNDriveCPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if res.Epochs[0].Batches != clean.Epochs[0].Batches {
		t.Fatalf("batches %d != fault-free %d", res.Epochs[0].Batches, clean.Epochs[0].Batches)
	}
	if res.Epochs[0].Escalations != 0 {
		t.Fatalf("%d escalations in a transient-only run", res.Epochs[0].Escalations)
	}
	// The injector must be detached afterwards: the cached device is
	// shared with future runs.
	ds, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dev.Injector() != nil {
		t.Fatal("injector left attached to the cached device after Run")
	}
	again, err := RunCtx(context.Background(), tinyCfg(), GNNDriveCPU, RunOptions{Epochs: 1})
	if err != nil || again.Epochs[0].Retries != 0 {
		t.Fatalf("clean rerun: err=%v retries=%d", err, again.Epochs[0].Retries)
	}
}
