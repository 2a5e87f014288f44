package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
)

func TestStepBarrierReleasesTogether(t *testing.T) {
	const n = 4
	b := newStepBarrier(n)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 50; step++ {
				// Everyone must observe the same phase before the barrier.
				if int(phase.Load()) != step {
					t.Errorf("phase raced: %d != %d", phase.Load(), step)
					return
				}
				b.await(func() { phase.Add(1) })
			}
		}()
	}
	wg.Wait()
	if phase.Load() != 50 {
		t.Fatalf("phase %d", phase.Load())
	}
}

func TestStepBarrierActionRunsOncePerStep(t *testing.T) {
	const n = 3
	b := newStepBarrier(n)
	var count atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 20; step++ {
				b.await(func() { count.Add(1) })
			}
		}()
	}
	wg.Wait()
	if count.Load() != 20 {
		t.Fatalf("action ran %d times, want 20", count.Load())
	}
}

func TestAllReduceTimeModel(t *testing.T) {
	p := &Parallel{
		engines:   make([]*Engine, 4),
		gradBytes: 1 << 20,
		timeScale: 1,
	}
	// A ring all-reduce moves 2 × 1 MiB × 3/4 at 5 GB/s (314.57 µs), and
	// each of the 3 worker pairs adds 3 ms.
	if got, want := p.allReduceTime(), 9314572*time.Nanosecond; got != want {
		t.Fatalf("allreduce %v, want %v", got, want)
	}
	p.timeScale = 0.05
	if got, want := p.allReduceTime(), 465728*time.Nanosecond; got != want {
		t.Fatalf("allreduce at time scale 0.05: %v, want %v", got, want)
	}
	p.engines = p.engines[:1]
	if p.allReduceTime() != 0 {
		t.Fatal("single worker must not pay sync")
	}
}

func TestParallelSharedStagingAndPins(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	dev2 := device.New(device.InstantConfig())
	t.Cleanup(func() { dev2.Close() })
	opts := testOpts()
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, dev2}, rig.budget,
		rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines share one staging pool.
	e := p.engines
	if e[0].staging != e[1].staging {
		t.Fatal("workers must share the staging buffer")
	}
	if e[0].ownStaging || e[1].ownStaging {
		t.Fatal("workers must not own the shared staging")
	}
	p.Close()
	if rig.budget.Pinned() != 0 {
		t.Fatalf("pins leaked after Close: %d", rig.budget.Pinned())
	}
	if rig.dev.MemUsed() != 0 || dev2.MemUsed() != 0 {
		t.Fatal("device memory leaked")
	}
}

func TestParallelModeledEpochBalanced(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	dev2 := device.New(device.InstantConfig())
	t.Cleanup(func() { dev2.Close() })
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, dev2}, rig.budget,
		rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	total, results, err := p.TrainEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("no wall time")
	}
	if results[0].Batches != results[1].Batches || results[0].Batches == 0 {
		t.Fatalf("segments unbalanced: %d vs %d", results[0].Batches, results[1].Batches)
	}
}

func TestParallelSingleWorkerNoSync(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev}, rig.budget,
		rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if p.syncFn(0) != nil {
		t.Fatal("single worker should have nil sync")
	}
	if _, _, err := p.TrainEpochCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// Engines with an undersized shared budget must fail cleanly.
func TestParallelOOMPropagates(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	small := hostmem.NewBudget(48 << 10) // the metadata pin fits, the staging pool does not
	cache := pagecache.New(rig.ds.Dev, small)
	_, err := NewParallel(rig.ds, []*device.Device{rig.dev}, small, cache, rig.rec, testOpts())
	if err == nil {
		t.Fatal("expected OOM")
	}
	if small.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", small.Pinned())
	}
}

func TestCPUParallelSharesFeatureBuffer(t *testing.T) {
	cpuCfg := device.XeonCPU()
	cpuCfg.TimeScale = 0
	cpuCfg.Throughput = 0
	rig := newRig(t, cpuCfg, 128<<20)
	dev2 := device.New(cpuCfg)
	t.Cleanup(func() { dev2.Close() })
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, dev2}, rig.budget,
		rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	e := p.engines
	if e[0].fb != e[1].fb {
		t.Fatal("CPU workers must share one feature buffer (§4.4)")
	}
	if !e[0].ownFB || e[1].ownFB {
		t.Fatal("ownership must rest with worker 0")
	}
	if _, _, err := p.TrainEpochCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if rig.budget.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", rig.budget.Pinned())
	}
}

func TestGPUParallelSeparateFeatureBuffers(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	dev2 := device.New(device.InstantConfig())
	t.Cleanup(func() { dev2.Close() })
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, dev2}, rig.budget,
		rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	e := p.engines
	if e[0].fb == e[1].fb {
		t.Fatal("GPU workers must each own a device-resident feature buffer")
	}
}
