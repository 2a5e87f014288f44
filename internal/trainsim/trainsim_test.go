package trainsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/linuring"
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

// A GNNDrive run whose checkpoint saves fail still trains, and reports
// each failure through Logf.
func TestCheckpointSaveFailureLogged(t *testing.T) {
	defer DropDatasets()
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.RealTrain, cfg.Hidden, cfg.TrainLimit = true, 16, 200
	cfg.CheckpointDir = filepath.Join(blocker, "ckpt")
	var mu sync.Mutex
	var logged strings.Builder
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logged, format+"\n", args...)
	}
	if _, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1}); err != nil {
		t.Fatalf("a failed checkpoint save failed the run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logged.String(), "checkpoint save failed") {
		t.Fatalf("Logf received %q, want the checkpoint save failure", logged.String())
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

// TestEpochDirectReadsNeverDegrade: on a real file, a whole GNNDrive
// epoch's direct reads reach the O_DIRECT descriptor. The staging pool's
// AlignedBuf memory is what the extractor reads into, so no direct read
// may fall back to the buffered path (storage.Stats.DirectDegraded).
func TestEpochDirectReadsNeverDegrade(t *testing.T) {
	for _, backend := range []string{"file", "linuring"} {
		for _, layout := range []string{"strided", "packed"} {
			t.Run(backend+"/"+layout, func(t *testing.T) {
				defer DropDatasets()
				cfg := tinyCfg()
				cfg.Backend, cfg.Layout = backend, layout
				cfg.DataFile = filepath.Join(t.TempDir(), "tiny.img")
				cfg.fill()
				ds, err := buildDataset(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d, ok := ds.Dev.(interface{ DirectActive() bool }); !ok || !d.DirectActive() {
					t.Skipf("%s: the filesystem refused O_DIRECT (tmpfs before Linux 6.6 does), so every direct read degrades by design", cfg.DataFile)
				}
				res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
				if err != nil {
					t.Fatal(err)
				}
				st := ds.Dev.Stats()
				if res.Epochs[0].BackendReads == 0 || st.Reads == 0 {
					t.Fatalf("epoch issued no reads (extract %d, backend %+v)", res.Epochs[0].BackendReads, st)
				}
				if st.DirectDegraded != 0 {
					t.Fatalf("%d of %d reads left the O_DIRECT path", st.DirectDegraded, st.Reads)
				}
				t.Logf("%d backend reads, none degraded", st.Reads)
			})
		}
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

// TestOpenByName: every backend name reaches a backend that serves a
// direct read — linuring both where the kernel grants io_uring and,
// vetoed, through its file fallback, which it announces through Logf —
// an auto-created backing file is gone after close, and an unknown name
// is rejected by check.
func TestOpenByName(t *testing.T) {
	for _, tc := range []struct{ name, veto string }{
		{"sim", ""}, {"file", ""}, {"linuring", ""}, {"linuring", "1"},
	} {
		t.Run(tc.name+"/veto="+tc.veto, func(t *testing.T) {
			t.Setenv(linuring.EnvDisable, tc.veto)
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			var logged strings.Builder
			logf := func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) }
			dev, closeDev, err := OpenBackend(Config{Backend: tc.name, Logf: logf}, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.ReadDirectCtx(context.Background(), storage.AlignedBuf(512, 512), 512); err != nil {
				closeDev()
				t.Fatal(err)
			}
			_, ring := dev.(linuring.RingStatser)
			_, pool := dev.(*file.Backend)
			wantRing := tc.name == "linuring" && linuring.Supported()
			wantPool := tc.name == "file" || (tc.name == "linuring" && !wantRing)
			fellBack := strings.Contains(logged.String(), "falling back to file backend")
			temps, _ := os.ReadDir(tmp)
			closeDev()
			if ring != wantRing || pool != wantPool || fellBack != (tc.name == "linuring" && pool) {
				t.Fatalf("%T: ring=%v pool=%v, want ring=%v pool=%v; logged %q", dev, ring, pool, wantRing, wantPool, logged.String())
			}
			wantTemps := 1
			if tc.name == "sim" {
				wantTemps = 0
			}
			if len(temps) != wantTemps {
				t.Fatalf("%d backing files while open, want %d", len(temps), wantTemps)
			}
			if left, _ := os.ReadDir(tmp); len(left) != 0 {
				t.Fatalf("close left %d files in the temp dir", len(left))
			}
		})
	}
	if _, _, err := OpenBackend(Config{Backend: "nvme"}, 1<<20); err == nil {
		t.Fatal("unknown backend name opened")
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
		"batch":               func(c *Config) { c.BatchSize = -1 },
		"memory":              func(c *Config) { c.HostMemoryGB = -1 },
		"scale":               func(c *Config) { c.Scale = -1 },
		"scale NaN":           func(c *Config) { c.Scale = math.NaN() },
		"scale +Inf":          func(c *Config) { c.Scale = math.Inf(1) },
		"scale 1e300":         func(c *Config) { c.Scale = 1e300 },
		"feature buffer NaN":  func(c *Config) { c.FeatureBufferX = math.NaN() },
		"feature buffer +Inf": func(c *Config) { c.FeatureBufferX = math.Inf(1) },
		"fanout":              func(c *Config) { c.Fanouts = []int{4, 0} },
		"layout":              func(c *Config) { c.Layout = "zigzag" },
		"dim":                 func(c *Config) { c.Dim = maxDim + 1 },
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
	ds, err := gen.BuildWith(gen.Tiny(), integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
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

// TestPackedIndexBytesPinned pins the offset section a container saves
// for PackDataset's mapping: tiny, and Papers at dim 100, packed at seed
// 1, hash to the FNV-64a values recorded when the offsets moved into the
// container (the same offsets, byte for byte, that the separate index
// file held before). A save and load round trip cannot see format drift;
// this can. The trace samples on GOMAXPROCS workers, so CI runs it at one
// and four procs.
func TestPackedIndexBytesPinned(t *testing.T) {
	papers := gen.Papers()
	papers.Dim = 100
	for _, tc := range []struct {
		spec gen.Spec
		want uint64
	}{
		{gen.Tiny(), 0x26b7ba75f18e8e92},
		{papers, 0xe93a996c05bfaf69},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			ds, err := gen.BuildWith(tc.spec, sim.Factory(sim.InstantConfig()))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()
			if err := PackDataset(ds, Config{Model: nn.GraphSAGE, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "x.gnnd")
			if err := graph.Save(ds, path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// With no checksum table, the offset section ends the file:
			// an offset per node and the section's CRC.
			section := raw[len(raw)-int(8*ds.NumNodes+4):]
			h := fnv.New64a()
			h.Write(section)
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("%d-byte offset section hashes to %#016x, want %#016x", len(section), got, tc.want)
			}
		})
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

// saveTiny writes the tiny dataset as cmd/datagen -out does: a .gnnd
// container built through the integrity layer, which saves its checksums.
// It returns the container path, the built dataset and the file offset
// where the container's index array starts.
func saveTiny(t *testing.T) (string, *graph.Dataset, int64) {
	t.Helper()
	ds, err := gen.BuildWith(gen.Tiny(), integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	if err := graph.Save(ds, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, metadata length, metadata, indptr, splits, labels.
	metaLen := int64(binary.LittleEndian.Uint64(raw[6:]))
	indices := 6 + 8 + metaLen + 8*(ds.NumNodes+1+int64(len(ds.TrainIdx)+len(ds.ValIdx))) + 4*ds.NumNodes
	return path, ds, indices
}

// patchFile XORs mask into the bytes at offs of the file at path.
func patchFile(t *testing.T, path string, mask byte, offs ...int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		raw[off] ^= mask
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A verified load adopts the checksums cmd/datagen saved in the
// container, so a feature byte corrupted on disk since then fails the run
// with a checksum error instead of training on it; the clean container
// trains with every read verified.
func TestLoadVerifiesAgainstSavedChecksums(t *testing.T) {
	defer DropDatasets()
	path, ds, indices := saveTiny(t)
	cfg := tinyCfg()
	cfg.LoadFile, cfg.Integrity, cfg.TrainLimit, cfg.InOrder = path, &integrity.Options{}, 100, true
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatalf("clean container: %v", err)
	}
	if st := res.Epochs[0].Integrity; st.VerifiedReads == 0 || st.UnverifiedReads != 0 || st.ChecksumFailures != 0 {
		t.Fatalf("clean container: %+v", st)
	}

	// One byte of a training node's feature vector, which every epoch reads.
	features := indices + 4*ds.NumEdges
	patchFile(t, path, 0x40, features+ds.TrainIdx[0]*ds.FeatBytes()+1)
	DropDatasets()
	_, err = RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("corrupt feature byte: got %v, want ErrChecksum", err)
	}
}

// A container saved from a device that kept no checksums still loads
// under Integrity: the run warns and verifies against the loaded bytes.
func TestLoadWithoutSavedChecksumsWarns(t *testing.T) {
	defer DropDatasets()
	ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.InstantConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	if err := graph.Save(ds, path); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	cfg := tinyCfg()
	cfg.LoadFile, cfg.Integrity, cfg.TrainLimit, cfg.InOrder = path, &integrity.Options{}, 100, true
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Epochs[0].Integrity; st.VerifiedReads == 0 || st.ChecksumFailures != 0 {
		t.Fatalf("integrity: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "saved no checksums") {
		t.Fatalf("logged %q, want one missing-checksums warning", logs)
	}
}

// A corrupt neighbor ID in a list Dataset.Validate's spot check skips is an
// error out of the run, not an out-of-range index in the feature buffer.
func TestLoadRejectsCorruptNeighbor(t *testing.T) {
	defer DropDatasets()
	path, ds, indices := saveTiny(t)
	step := ds.NumNodes/256 + 1
	var offs []int64
	for v := int64(1); v < ds.NumNodes; v++ {
		if v%step != 0 && ds.Degree(v) > 0 {
			// The high byte of v's first neighbor: the ID grows past the graph.
			offs = append(offs, indices+4*ds.Indptr[v]+3)
		}
	}
	if len(offs) == 0 {
		t.Fatal("no neighbor list outside the spot check")
	}
	patchFile(t, path, 0x40, offs...)
	cfg := tinyCfg()
	cfg.LoadFile, cfg.TrainLimit = path, 100
	if _, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: 1}); !errors.Is(err, graph.ErrBadNeighbor) {
		t.Fatalf("corrupt neighbor: got %v, want ErrBadNeighbor", err)
	}
}
