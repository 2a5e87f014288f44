//go:build goexperiment.synctest

package core

import (
	"context"
	"testing"
	"testing/synctest"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
)

// TestVirtualSharedTierLiveness: two CPU workers of a Parallel share one
// feature buffer sized for both working sets plus a resident tier, on a
// graph the buffer cannot hold, and train two epochs with every
// reference released. The tier must be the slots beyond both working
// sets, which the test checks directly: batches here average about a
// third of the Mb estimate, so a tier sized for one worker's working set
// still trains. A tier that leaves less than about a third of one
// working set outside it starves both workers' reserves, and the epoch
// fails with reserveTimeout's ErrBufferTooSmall, which synctest's
// virtual clock (GOEXPERIMENT=synctest) reaches in milliseconds.
func TestVirtualSharedTierLiveness(t *testing.T) {
	spec := gen.Tiny()
	spec.Nodes = 20_000
	opts := testOpts()
	opts.Extractors, opts.TrainQueueCap = 1, 1
	cpu := device.XeonCPU()
	cpu.TimeScale, cpu.Throughput = 0, 0
	synctest.Run(func() {
		ds, err := gen.BuildWith(spec, sim.Factory(sim.InstantConfig()))
		if err != nil {
			t.Error(err)
			return
		}
		defer ds.Dev.Close()
		work := 0
		for w := range 2 {
			mb, err := sample.EstimateMaxBatchNodes(ds, opts.BatchSize, opts.Fanouts, 4, opts.Seed+uint64(w)*1_000_003)
			if err != nil {
				t.Error(err)
				return
			}
			work += opts.AutoFeatureSlots(mb)
		}
		opts.FeatureSlots = work + work/2
		if opts.FeatureSlots >= int(ds.NumNodes) {
			t.Errorf("%d slots hold the whole %d-node graph", opts.FeatureSlots, ds.NumNodes)
			return
		}
		devs := []*device.Device{device.New(cpu), device.New(cpu)}
		for _, d := range devs {
			defer d.Close()
		}
		budget := hostmem.NewBudget(256 << 20)
		p, err := NewParallel(ds, devs, budget, pagecache.New(ds.Dev, budget), metrics.NewRecorder(), opts)
		if err != nil {
			t.Error(err)
			return
		}
		defer p.Close()
		fb := p.engines[0].fb
		if tier := countResidents(fb); tier != opts.FeatureSlots-work {
			t.Errorf("tier of %d nodes, want %d slots less both working sets (%d)", tier, opts.FeatureSlots, work)
		}
		for epoch := range 2 {
			if _, _, err := p.TrainEpochCtx(context.Background(), epoch); err != nil {
				t.Errorf("epoch %d: %v", epoch, err)
				return
			}
			if refs := fb.TotalRefs(); refs != 0 {
				t.Errorf("epoch %d: %d references left", epoch, refs)
			}
		}
		if st := fb.Stats(); st.SlotRecycles == 0 {
			t.Errorf("the buffer never evicted: %+v", st)
		}
	})
}

func countResidents(fb *FeatureBuffer) int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	n := 0
	for _, e := range fb.entries {
		if e.resident {
			n++
		}
	}
	return n
}
