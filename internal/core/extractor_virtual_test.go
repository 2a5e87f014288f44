//go:build goexperiment.synctest

package core

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage/sim"
)

// TestVirtualDeferredTransfersEpoch: on a GPU whose DMA takes a
// millisecond per node, every drain's transfer is past the pacing slack,
// so the device's timer, not the extractor, completes it. The epoch must
// train every batch, wait for each batch's transfers before handing it
// on, and end with every reference released and every staging extent
// back. Run under -race in the virtual leg (GOEXPERIMENT=synctest), it
// also checks that runPlan's wait orders the timer's completions before
// the extractor's next use of its transfer records.
func TestVirtualDeferredTransfersEpoch(t *testing.T) {
	synctest.Run(func() {
		ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.InstantConfig()))
		if err != nil {
			t.Error(err)
			return
		}
		defer ds.Dev.Close()
		gpu := device.InstantConfig()
		gpu.TransferBps = float64(ds.FeatBytes()) / time.Millisecond.Seconds()
		dev := device.New(gpu)
		defer dev.Close()
		budget := hostmem.NewBudget(64 << 20)
		e, err := New(ds, dev, budget, pagecache.New(ds.Dev, budget), metrics.NewRecorder(), testOpts())
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		start := time.Now()
		res, err := e.TrainEpochFrom(context.Background(), 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if want := (len(ds.TrainIdx) + 39) / 40; res.Batches != want {
			t.Errorf("batches %d, want %d", res.Batches, want)
		}
		moved := time.Duration(res.NodesExtracted) * time.Millisecond
		if res.NodesExtracted == 0 || dev.TransferBusy() != moved || time.Since(start) < moved {
			t.Errorf("%d nodes moved in %v of modeled DMA and %v of epoch, want %v of both at least",
				res.NodesExtracted, dev.TransferBusy(), time.Since(start), moved)
		}
		if fb := e.FeatureBuffer(); fb.TotalRefs() != 0 || fb.StandbyLen() != fb.Slots() {
			t.Errorf("after the epoch: %d references, %d of %d slots on standby", fb.TotalRefs(), fb.StandbyLen(), fb.Slots())
		}
		if free, all := e.staging.FreeSlots(), e.staging.Slots(); free != all {
			t.Errorf("after the epoch: %d of %d staging units free", free, all)
		}
	})
}
