package trainsim

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gnndrive/internal/baselines/marius"
	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/faults"
	"gnndrive/internal/gen"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/sample"
)

// stepLosses trains kind for epochs epochs on cfg and returns every step's
// loss in order.
func stepLosses(t *testing.T, cfg Config, kind SystemKind, epochs int) []float32 {
	t.Helper()
	res, err := RunCtx(context.Background(), cfg, kind, RunOptions{Epochs: epochs})
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	var out []float32
	for _, st := range res.Epochs {
		out = append(out, st.StepLosses...)
	}
	return out
}

// TestSystemsTrainIdenticalSteps is the cross-system oracle. The systems
// differ only in their data path: GNNDrive in order, PyG+ (its DataLoader
// handing batches over in plan order, at its default two workers), Ginex
// (two superbatch samplers) and MariusGNN with every partition resident
// all train the same model on the same batches in plan order, so their
// step losses are bit-identical. A caching, packing or reordering change
// may change which bytes a system reads, never this. A MariusGNN buffer
// holding only some partitions samples resident nodes only, so its
// trajectory must differ.
func TestSystemsTrainIdenticalSteps(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.RealTrain, cfg.Hidden, cfg.InOrder = true, 16, true
	const epochs = 2
	want := stepLosses(t, cfg, GNNDriveGPU, epochs)
	if len(want) == 0 {
		t.Fatal("no steps trained")
	}
	for k := range systems {
		if got := stepLosses(t, cfg, SystemKind(k), epochs); !slices.Equal(got, want) {
			t.Errorf("%v: step losses differ from GNNDrive in order:\n got %v\nwant %v", SystemKind(k), got, want)
		}
	}

	e, err := newEnv(cfg, systems[Marius].device())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// On an unbounded budget MariusGNN pins its metadata and all 24
	// partitions. A budget of three quarters of those bytes, once the
	// preparation staging is set aside, holds fewer (12 on tiny).
	all := hostmem.NewBudget(e.budget.Capacity())
	full, err := marius.New(e.ds, e.dev, all, e.rec, e.knobs())
	if err != nil {
		t.Fatal(err)
	}
	allPinned := all.Pinned()
	full.Close()
	budget := hostmem.NewBudget(allPinned * 3 / 4)
	m, err := marius.New(e.ds, e.dev, budget, e.rec, e.knobs())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if budget.Pinned() >= allPinned {
		t.Fatalf("a %d-byte budget pinned %d bytes, as much as all 24 partitions", budget.Capacity(), budget.Pinned())
	}
	var partial []float32
	for ep := 0; ep < epochs; ep++ {
		st, err := m.TrainEpoch(context.Background(), ep)
		if err != nil {
			t.Fatal(err)
		}
		partial = append(partial, st.StepLosses...)
	}
	if len(partial) == 0 || slices.Equal(partial, want) {
		t.Fatalf("MariusGNN with part of its partitions resident trained %d steps identical to the full graph's",
			len(partial))
	}
}

// TestFig12HitsGrowWithFeatureBuffer is Fig. 12's mechanism as a count:
// in order on one seed, GNNDrive's feature-buffer hits never fall as
// FeatureBufferX goes 1 → 4, and the largest buffer hits more than the
// smallest. The graph is large enough that every buffer in the sweep
// evicts, so a larger buffer that keeps the wrong vectors shows. In
// order the working set is 6 Mb against FeatureBufferX × 4 Mb slots, so
// X ≥ 2 also holds a resident tier.
func TestFig12HitsGrowWithFeatureBuffer(t *testing.T) {
	defer DropDatasets()
	spec := gen.Tiny()
	spec.Nodes = 60_000
	var hits []int64
	for _, x := range []float64{1, 2, 3, 4} {
		cfg := Config{Dataset: spec, Backend: "sim", FeatureBufferX: x, TrainLimit: 1200,
			InOrder: true, Scale: 0.01, Seed: 1}
		res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 3})
		if err != nil {
			t.Fatal(err)
		}
		var fb core.FeatureBufferStats
		for _, st := range res.Epochs {
			fb.ReuseHits += st.FB.ReuseHits
			fb.SlotRecycles += st.FB.SlotRecycles
		}
		if fb.SlotRecycles == 0 {
			t.Fatalf("FeatureBufferX %v never evicted: %+v", x, fb)
		}
		hits = append(hits, fb.ReuseHits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			t.Errorf("FeatureBufferX %d hits %d, fewer than FeatureBufferX %d's %d", i+1, hits[i], i, hits[i-1])
		}
	}
	if hits[len(hits)-1] <= hits[0] {
		t.Errorf("hits over FeatureBufferX 1..4: %v, no gain from a larger buffer", hits)
	}
}

// TestTrainEpochStopsOnCancel: every system checks ctx between
// mini-batches, so a cancel that arrives after the first step ends the
// epoch with ctx's error instead of training the rest.
func TestTrainEpochStopsOnCancel(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.BatchSize = 20 // 30 steps an epoch
	for _, row := range systems {
		t.Run(row.name, func(t *testing.T) {
			// A modeled step of ≈ 10 ms at Scale 0.01 (MariusGNN's 2.5x
			// slower), so the steps left outlast the cancel by far.
			dcfg := row.device()
			dcfg.Throughput = 2e8
			e, err := newEnv(cfg, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			sys, err := row.build(e)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for e.dev.ComputeBusy() == 0 && ctx.Err() == nil {
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
			}()
			st, err := sys.TrainEpoch(ctx, 0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled epoch returned %v after %d steps, want context.Canceled", err, st.Batches)
			}
			if total := (len(e.ds.TrainIdx) + cfg.BatchSize - 1) / cfg.BatchSize; st.Batches >= total {
				t.Fatalf("trained all %d steps after the cancel", st.Batches)
			}
		})
	}
}

// TestEnvAppliesTrainLimitAndFaults: SampleOnly and RunParallel build
// their environment the way RunCtx does, so the training split is cut to
// TrainLimit (Fig. 2's "-only" bar samples the split its "-all" bar
// trains on) and the fault schedule is attached.
func TestEnvAppliesTrainLimitAndFaults(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	// One sampler, so the device reads repeat exactly, and one hop, so a
	// few targets touch few of the topology's pages.
	cfg.InOrder, cfg.Fanouts = true, []int{1}
	reads := func(f func(Config) error, limit int) int64 {
		c := cfg
		c.TrainLimit = limit
		before := DeviceStats(c).Reads
		if err := f(c); err != nil {
			t.Fatal(err)
		}
		return DeviceStats(c).Reads - before
	}
	for _, tc := range []struct {
		name  string
		limit int
		run   func(Config) error
	}{
		{"SampleOnly", 1, func(c Config) error {
			_, err := SampleOnly(context.Background(), c, GNNDriveGPU)
			return err
		}},
		{"RunParallel", 100, func(c Config) error { // one batch per worker
			_, err := RunParallel(context.Background(), c, 2, device.TeslaK80(), 1)
			return err
		}},
	} {
		if all, cut := reads(tc.run, 0), reads(tc.run, tc.limit); cut*2 >= all {
			t.Errorf("%s read %d times on a %d-node split and %d on the full one: TrainLimit ignored",
				tc.name, cut, tc.limit, all)
		}
		bad := cfg
		bad.Faults = &faults.Config{MediaRanges: []faults.Range{{Off: 0, Len: 1 << 40}}}
		if err := tc.run(bad); !errors.Is(err, faults.ErrMedia) {
			t.Errorf("%s on an all-bad device returned %v, want a media error", tc.name, err)
		}
	}
}

// TestRunParallelAppliesFeatureBufferX: each of RunParallel's GPU
// workers sizes its own buffer at FeatureBufferX x the paper's four
// extractors x its own Mb, which its own batch seed decides, as a single
// engine does.
func TestRunParallelAppliesFeatureBufferX(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.FeatureBufferX, cfg.BatchSize, cfg.Fanouts, cfg.TrainLimit = 2, 5, []int{2, 2}, 100
	var slots []int
	cfg.OnEngine = func(eng *core.Engine) { slots = append(slots, eng.FeatureBuffer().Slots()) }
	if _, err := RunParallel(context.Background(), cfg, 2, device.TeslaK80(), 1); err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(cfg, device.TeslaK80())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	o := e.cfg.EngineOptions()
	var want []int
	for w := range 2 {
		mb, err := sample.EstimateMaxBatchNodes(e.ds, o.BatchSize, o.Fanouts, 4, o.Seed+uint64(w)*1_000_003)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, 2*4*mb)
	}
	if slices.Max(want) >= int(e.ds.NumNodes) {
		t.Fatalf("buffers of %v slots clamp to the %d-node graph", want, e.ds.NumNodes)
	}
	if !slices.Equal(slots, want) {
		t.Errorf("workers' buffers hold %v slots, want 2 x 4 x each worker's Mb = %v", slots, want)
	}
}
