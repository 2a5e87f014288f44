package trainsim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

// tinyCfg keeps modeled time near zero so tests are fast.
func tinyCfg() Config {
	return Config{
		Dataset:      gen.Tiny(),
		Model:        nn.GraphSAGE,
		HostMemoryGB: 64,
		BatchSize:    50,
		Fanouts:      []int{4, 4},
		Scale:        0.01,
	}
}

func TestRunAllSystemsOneEpoch(t *testing.T) {
	defer DropDatasets()
	for k := range systems {
		sys := SystemKind(k)
		for _, real := range []bool{false, true} {
			cfg := tinyCfg()
			cfg.RealTrain, cfg.Hidden = real, 16
			res, err := RunCtx(context.Background(), cfg, sys, RunOptions{Epochs: 1})
			if err != nil {
				t.Fatalf("%v real=%v: %v", sys, real, err)
			}
			if len(res.Epochs) != 1 || res.Epochs[0].Batches == 0 {
				t.Fatalf("%v real=%v: no work done: %+v", sys, real, res.Epochs)
			}
			st := res.Epochs[0]
			if st.Total <= 0 {
				t.Fatalf("%v: zero epoch time", sys)
			}
			if sys == Marius && st.Prep == 0 {
				t.Fatal("marius must report data preparation")
			}
			// Every system records one loss per trained step, and only
			// when it trains for real.
			if want := map[bool]int{false: 0, true: st.Batches}[real]; len(st.StepLosses) != want {
				t.Fatalf("%v real=%v: %d step losses for %d batches", sys, real, len(st.StepLosses), st.Batches)
			}
		}
	}
}

func TestDatasetCacheReuse(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	a, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same config must reuse the cached dataset")
	}
	cfg.Dim = 64
	c, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Dim != 64 {
		t.Fatal("dim override must build a distinct dataset")
	}
}

func TestTrainLimitTruncates(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.TrainLimit = 100
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Batches != 2 {
		t.Fatalf("batches %d want 2 (100 nodes / 50 batch)", res.Epochs[0].Batches)
	}
}

func TestMariusOOMClassified(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.HostMemoryGB = 1 // 1 scaled GB...
	cfg.Dim = 512        // ...against a 4 MB feature table: prep cannot fit
	_, err := RunCtx(context.Background(), cfg, Marius, RunOptions{Epochs: 1})
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
}

func TestSampleOnlySupported(t *testing.T) {
	defer DropDatasets()
	for k := range systems {
		sys := SystemKind(k)
		d, err := SampleOnly(context.Background(), tinyCfg(), sys)
		if sys == Marius {
			if err == nil {
				t.Fatal("marius has no sample-only mode")
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if d <= 0 {
			t.Fatalf("%v: non-positive sample time", sys)
		}
	}
}

func TestRunParallelSpeedups(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.HostMemoryGB = 256
	devCfg := device.TeslaK80()
	one, err := RunParallel(context.Background(), cfg, 1, devCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunParallel(context.Background(), cfg, 2, devCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one <= 0 || two <= 0 {
		t.Fatal("non-positive epoch times")
	}
}

func TestRealTrainEvalVal(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.RealTrain = true
	cfg.Hidden = 24
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 2, EvalVal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValAcc) != 2 {
		t.Fatalf("val accs %v", res.ValAcc)
	}
	if res.ValAcc[1] <= 0.1 {
		t.Fatalf("val acc %v suspiciously low", res.ValAcc[1])
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Fatalf("loss did not improve: %v -> %v", res.Epochs[0].Loss, res.Epochs[1].Loss)
	}
}

func TestUtilizationWindows(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.Scale = 1 // long enough to catch windows
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1, SampleUtil: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no utilization windows collected")
	}
}

func TestSystemKindString(t *testing.T) {
	names := map[SystemKind]string{
		GNNDriveGPU: "GNNDrive-GPU", GNNDriveCPU: "GNNDrive-CPU",
		PyGPlus: "PyG+", Ginex: "Ginex", Marius: "MariusGNN",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d: %s", k, k.String())
		}
	}
}

func TestAvgEpochAndPrep(t *testing.T) {
	r := Result{Epochs: []EpochStats{
		{Breakdown: metrics.Breakdown{Total: 2 * time.Second, Prep: time.Second}},
		{Breakdown: metrics.Breakdown{Total: 4 * time.Second, Prep: 3 * time.Second}},
	}}
	if r.AvgEpoch() != 3*time.Second || r.AvgPrep() != 2*time.Second {
		t.Fatalf("avg %v prep %v", r.AvgEpoch(), r.AvgPrep())
	}
	var empty Result
	if empty.AvgEpoch() != 0 || empty.AvgPrep() != 0 {
		t.Fatal("empty result must average to zero")
	}
}

func TestFeatureBufferXRuns(t *testing.T) {
	defer DropDatasets()
	for _, x := range []float64{1, 2, 8} {
		cfg := tinyCfg()
		cfg.FeatureBufferX = x
		res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		if res.Epochs[0].Batches == 0 {
			t.Fatalf("x=%v: no batches", x)
		}
	}
}

func TestAblationSwitchesRun(t *testing.T) {
	defer DropDatasets()
	for name, mut := range map[string]func(*Config){
		"inorder":  func(c *Config) { c.InOrder = true },
		"sync":     func(c *Config) { c.SyncExtraction = true },
		"buffered": func(c *Config) { c.BufferedIO = true },
	} {
		cfg := tinyCfg()
		mut(&cfg)
		if _, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	defer DropDatasets()
	dir := t.TempDir()
	cfg := tinyCfg()
	cfg.RealTrain = true
	cfg.Hidden = 32
	cfg.TrainLimit = 400
	cfg.CheckpointDir = dir

	// First launch: two of four epochs, then "crash" (the process just
	// stops using the engine; the committed checkpoints survive).
	res1, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Epochs) != 2 {
		t.Fatalf("first launch ran %d epochs, want 2", len(res1.Epochs))
	}

	// Relaunch with -resume semantics: epochs 0 and 1 are done, so a
	// 4-epoch run trains exactly epochs 2 and 3.
	cfg.Resume = true
	res2, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Epochs) != 2 {
		t.Fatalf("resumed launch ran %d epochs, want the remaining 2", len(res2.Epochs))
	}

	// Resuming a finished run trains nothing.
	res3, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Epochs) != 0 {
		t.Fatalf("fully trained run re-ran %d epochs", len(res3.Epochs))
	}
}

func TestRunCtxCancelDuringResumedEpoch(t *testing.T) {
	defer DropDatasets()
	dir := t.TempDir()
	cfg := tinyCfg()
	cfg.RealTrain = true
	cfg.Hidden = 32
	cfg.TrainLimit = 400
	cfg.CheckpointDir = dir

	// First launch completes one epoch so the relaunch actually resumes.
	if _, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err != nil {
		t.Fatal(err)
	}

	// Relaunch resumed with a context that dies mid-run: the epoch loop
	// must stop with the context's error instead of training all the
	// remaining epochs.
	cfg.Resume = true
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := RunCtx(ctx, cfg, GNNDriveGPU, RunOptions{Epochs: 10000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("resumed run returned %v, want context.Canceled", err)
	}
	if len(res.Epochs) >= 9999 {
		t.Fatalf("cancellation did not interrupt the run: %d epochs completed", len(res.Epochs))
	}

	// A pre-cancelled context stops the loop before any epoch trains.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	res, err = RunCtx(done, cfg, GNNDriveGPU, RunOptions{Epochs: 10000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	if len(res.Epochs) != 0 {
		t.Fatalf("pre-cancelled run trained %d epochs", len(res.Epochs))
	}
}

func TestRunStallDeadlineHealthy(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.StallDeadline = 30 * time.Second
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Stalls != 0 {
		t.Fatalf("healthy run reported %d stalls", res.Epochs[0].Stalls)
	}
}

func TestFileBackendRunsAndCaches(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.Backend = "file"
	cfg.DataFile = filepath.Join(t.TempDir(), "tiny.img")
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Batches == 0 {
		t.Fatal("no batches trained on the file backend")
	}
	if _, err := os.Stat(cfg.DataFile); err != nil {
		t.Fatalf("backing file missing: %v", err)
	}
	// The file-backend dataset is cached separately from the sim one.
	a, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := tinyCfg()
	b, err := buildDataset(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("file and sim configs must not share a cached dataset")
	}
	if st := DeviceStats(cfg); st.Reads == 0 {
		t.Fatalf("file backend reported no reads: %+v", st)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	defer DropDatasets()
	cfg := tinyCfg()
	cfg.Backend = "nvme-of"
	if _, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestRunRejectsBadConfig: RunCtx, SampleOnly and RunParallel — the paths
// cmd/figures and bench build through — return an error for a Config no
// run can honour instead of panicking or mis-measuring, and a negative
// StallDeadline still means off.
func TestRunRejectsBadConfig(t *testing.T) {
	defer DropDatasets()
	ctx := context.Background()
	for name, mut := range map[string]func(*Config){
		"batch":  func(c *Config) { c.BatchSize = -1 },
		"memory": func(c *Config) { c.HostMemoryGB = -1 },
		"scale":  func(c *Config) { c.Scale = -1 },
		"fanout": func(c *Config) { c.Fanouts = []int{4, 0} },
		"layout": func(c *Config) { c.Layout = "zigzag" },
	} {
		cfg := tinyCfg()
		mut(&cfg)
		if _, err := RunCtx(ctx, cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err == nil {
			t.Errorf("%s: RunCtx accepted %+v", name, cfg)
		}
		if _, err := SampleOnly(ctx, cfg, PyGPlus); err == nil {
			t.Errorf("%s: SampleOnly accepted %+v", name, cfg)
		}
		if _, err := RunParallel(ctx, cfg, 1, device.TeslaK80(), 1); err == nil {
			t.Errorf("%s: RunParallel accepted %+v", name, cfg)
		}
	}
	cfg := tinyCfg()
	cfg.StallDeadline = -time.Second
	if _, err := RunCtx(ctx, cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err != nil {
		t.Errorf("negative StallDeadline: %v", err)
	}
}

// TestDatagenPacksLikeThePackedLayout: cmd/datagen -layout packed at its
// default flags (-trace-model sage -trace-batch 0 -trace-seed 1) builds
// through the integrity layer and calls PackDataset; a run with Layout
// "packed" and the same model, batch and seed must place every node
// identically, or a container packed offline would not be the layout the
// run expects.
func TestDatagenPacksLikeThePackedLayout(t *testing.T) {
	defer DropDatasets()
	ds, _, err := gen.BuildVerified(gen.Tiny(), sim.InstantConfig(), integrity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	if err := PackDataset(ds, Config{Model: nn.GraphSAGE, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	run := Config{Dataset: gen.Tiny(), Model: nn.GraphSAGE, Layout: "packed"}
	run.fill()
	want, err := buildDataset(run)
	if err != nil {
		t.Fatal(err)
	}
	got, wp := ds.Addr.(*layout.Packed), want.Addr.(*layout.Packed)
	if got.SegmentBytes() != wp.SegmentBytes() {
		t.Errorf("segment bytes %d, want %d", got.SegmentBytes(), wp.SegmentBytes())
	}
	differ := 0
	for v := int64(0); v < ds.NumNodes; v++ {
		if got.NodeOffset(v) != wp.NodeOffset(v) {
			differ++
		}
	}
	if differ != 0 {
		t.Errorf("%d of %d node offsets differ", differ, ds.NumNodes)
	}
}

// TestPackedLayoutBitIdenticalFewerReads is the layout seam's
// end-to-end contract: training on the packed layout must follow the
// exact same loss trajectory as strided (packing is a pure permutation
// of feature bytes, and the schedule is seed-deterministic) while
// issuing fewer, larger backend reads.
func TestPackedLayoutBitIdenticalFewerReads(t *testing.T) {
	defer DropDatasets()
	base := tinyCfg()
	base.RealTrain = true
	base.Hidden = 16
	base.InOrder = true
	base.Seed = 1

	strided, err := RunCtx(context.Background(), base, GNNDriveGPU, RunOptions{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	packedCfg := base
	packedCfg.Layout = "packed"
	packed, err := RunCtx(context.Background(), packedCfg, GNNDriveGPU, RunOptions{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := range strided.Epochs {
		sl, pl := strided.Epochs[e].StepLosses, packed.Epochs[e].StepLosses
		if len(sl) == 0 || len(sl) != len(pl) {
			t.Fatalf("epoch %d: step counts differ: %d vs %d", e, len(sl), len(pl))
		}
		for i := range sl {
			if sl[i] != pl[i] {
				t.Fatalf("epoch %d step %d: strided loss %v != packed loss %v",
					e, i, sl[i], pl[i])
			}
		}
	}
	s0, p0 := strided.Epochs[0], packed.Epochs[0]
	if s0.BackendReads == 0 || p0.BackendReads >= s0.BackendReads {
		t.Fatalf("packed reads %d, want fewer than strided %d", p0.BackendReads, s0.BackendReads)
	}
	if p0.BytesRead > s0.BytesRead {
		t.Fatalf("packed bytes read %d exceed strided %d", p0.BytesRead, s0.BytesRead)
	}
	if s0.BytesNeeded != p0.BytesNeeded {
		t.Fatalf("bytes needed differ: %d vs %d (same schedule must need the same payload)",
			s0.BytesNeeded, p0.BytesNeeded)
	}
}
