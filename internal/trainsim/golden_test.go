package trainsim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

// goldenEpoch is one epoch's data-path work: a fixed schedule's counts,
// which no change to the math may move.
type goldenEpoch struct {
	batches                       int
	reads, bytesRead, bytesReused int64
	featureBufferHits             int64
}

// TestRealInOrderCheckpointGolden runs real float32 training in order and
// pins the step losses, hashed bit for bit as the benchmark hashes them
// (fnv64a over each loss's float32 bits, little-endian), each epoch's
// batches, backend reads, bytes read, bytes reused and feature-buffer
// hits, and the run's topology fault reads.
//
// The ckpt rows are the benchmark's real_inorder_ckpt configuration
// (hidden 64 on the file backend, a checkpoint every three steps). Hidden
// 64 sends every conv's output rows through the row kernel's widest lane
// block and the 8-class logits through its narrow ones, so a kernel that
// rounds one product differently moves the hash. Their values were
// recorded with the SSE2 row kernel.
//
// The packed_verify row is file_packed_verify's shape: a packed dim-100
// layout read through the integrity layer at the minimum feature buffer.
// It runs twice, on the pack built in memory and on the same dataset
// saved as cmd/datagen saves it and loaded back, and both runs must hit
// the same pins: the container carries the layout and the checksums
// whole.
//
// The sim_strided and file_lowmem rows run on tenfold's 20 000 nodes, 12
// batches an epoch. sim_strided is that workload's shape: the simulator,
// the strided layout and the minimum feature buffer, which holds under a
// tenth of the graph. file_lowmem's 1 MiB host budget leaves the page
// cache 743 KB for the 960 KB index array, so topology faults every
// epoch, a page at a time through the backend's ReadAtCtx or in waves.
//
// The resident_tier row is the one whose feature buffer both evicts and
// has a resident tier: at FeatureBufferX 2 in order, 15 928 slots hold a
// 11 946-slot working set and the 3 982 highest-degree nodes, and the
// third epoch recycles slots. Its hash is the one recorded before the
// tier existed; the tier moved only the third epoch's reads (1604 → 1567)
// and hits (16 529 → 16 565).
//
// The parallel row is Fig. 13's path: a core.Parallel of two K80
// workers in order, each with its own feature buffer and DMA engine, on
// sim_strided's shape; its epochs sum both workers' counts and its hash
// runs over worker 0's step losses, then worker 1's. The cpu row is
// sim_strided's shape on the GNNDrive-CPU device, whose extractors mark
// nodes valid without a device transfer; it trains the same batches from
// the same reads as the sim_strided row, so it hits the same pins.
func TestRealInOrderCheckpointGolden(t *testing.T) {
	ckpt := func(seed uint64) func(dir string) Config {
		return func(dir string) Config {
			return Config{Dataset: gen.Tiny(), Backend: "file", DataFile: filepath.Join(dir, "tiny.img"),
				RealTrain: true, InOrder: true, Hidden: 64, CheckpointEverySteps: 3,
				CheckpointDir: filepath.Join(dir, "ckpt"), Scale: 0.01, Seed: seed}
		}
	}
	packedVerify := func(dir string) Config {
		return Config{Dataset: gen.Tiny(), Dim: 100, Backend: "file", DataFile: filepath.Join(dir, "tiny.img"),
			Layout: "packed", Integrity: &integrity.Options{}, FeatureBufferX: 1,
			RealTrain: true, InOrder: true, Hidden: 64, Scale: 0.01, Seed: 1}
	}
	simStrided := func(dir string) Config {
		return Config{Dataset: tenfold(), Backend: "sim", FeatureBufferX: 1, TrainLimit: 600,
			RealTrain: true, InOrder: true, Hidden: 64, Scale: 0.01, Seed: 1}
	}
	fileLowmem := func(dir string) Config {
		return Config{Dataset: tenfold(), Backend: "file", DataFile: filepath.Join(dir, "tenfold.img"),
			HostMemoryGB: 1, TrainLimit: 600, RealTrain: true, InOrder: true, Hidden: 64, Scale: 0.01, Seed: 2}
	}
	residentTier := func(dir string) Config {
		return Config{Dataset: tenfold(), Backend: "sim", FeatureBufferX: 2, TrainLimit: 600,
			RealTrain: true, InOrder: true, Hidden: 64, Scale: 0.01, Seed: 3}
	}
	gpu, cpu := runSystem(GNNDriveGPU), runSystem(GNNDriveCPU)
	for _, tc := range []struct {
		name   string
		config func(dir string) Config
		run    goldenRun
		hash   uint64
		epochs []goldenEpoch
		faults int64
	}{
		{"ckpt/seed1", ckpt(1), gpu, 0x7f141ec57f01a095, []goldenEpoch{
			{12, 148, 1228288, 1145216, 8947},
			{12, 12, 10240, 1412864, 11038},
			{12, 0, 0, 1400320, 10940},
		}, 24},
		{"ckpt/seed2", ckpt(2), gpu, 0xdc6a31911bfbee2d, []goldenEpoch{
			{12, 142, 1222144, 1147520, 8965},
			{12, 4, 2048, 1395712, 10904},
			{12, 0, 0, 1399040, 10930},
		}, 24},
		{"packed_verify", packedVerify, gpu, 0x3cb71d156932f9d6, []goldenEpoch{
			{12, 58, 822272, 3582000, 8955},
			{12, 6, 8704, 4307200, 10768},
			{12, 0, 0, 4376800, 10942},
		}, 24},
		{"sim_strided", simStrided, gpu, 0xe8d873adbd12e2cc, []goldenEpoch{
			{12, 2275, 16675328, 887680, 6935},
			{12, 2392, 13445632, 1260544, 9848},
			{12, 2358, 13901824, 1240192, 9689},
		}, 235},
		{"file_lowmem", fileLowmem, gpu, 0x5db7be6d49a263f3, []goldenEpoch{
			{12, 2253, 15949312, 968064, 7563},
			{12, 2016, 5354496, 1908736, 14912},
			{12, 1374, 2125824, 2162944, 16898},
		}, 4599},
		{"resident_tier", residentTier, gpu, 0xf8b4ecc6f6175e18, []goldenEpoch{
			{12, 2264, 15595520, 948864, 7413},
			{12, 2086, 5646848, 1889408, 14761},
			{12, 1567, 2649088, 2120320, 16565},
		}, 235},
		{"parallel", simStrided, runParallel(2, device.TeslaK80()), 0x69f3766e47990680, []goldenEpoch{
			{12, 2192, 18829824, 567808, 4436},
			{12, 2343, 13779456, 1279616, 9997},
			{12, 2388, 13182976, 1313152, 10259},
		}, 470},
		{"cpu", simStrided, cpu, 0xe8d873adbd12e2cc, []goldenEpoch{
			{12, 2275, 16675328, 887680, 6935},
			{12, 2392, 13445632, 1260544, 9848},
			{12, 2358, 13901824, 1240192, 9689},
		}, 235},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config(t.TempDir())
			checkGolden(t, cfg, tc.run, tc.hash, tc.epochs, tc.faults)
			if cfg.Layout != "packed" {
				return
			}
			cfg.LoadFile = saveLikeDatagen(t, cfg)
			cfg.DataFile = filepath.Join(t.TempDir(), "loaded.img")
			checkGolden(t, cfg, tc.run, tc.hash, tc.epochs, tc.faults)
		})
	}
}

// tenfold is tiny at ten times the nodes (20 000, a 960 KB index array
// and a 2.56 MB feature table), so the minimum feature buffer is smaller
// than the graph and a 1 MiB host budget leaves the page cache smaller
// than the index array.
func tenfold() gen.Spec {
	s := gen.Tiny()
	s.Name, s.Nodes = "tiny-x10", 20_000
	return s
}

// goldenRun trains cfg for the given number of epochs and returns each
// epoch's result.
type goldenRun func(cfg Config, epochs int) ([]core.EpochResult, error)

// runSystem runs cfg on one system through RunCtx.
func runSystem(kind SystemKind) goldenRun {
	return func(cfg Config, epochs int) ([]core.EpochResult, error) {
		res, err := RunCtx(context.Background(), cfg, kind, RunOptions{Epochs: epochs})
		return res.Epochs, err
	}
}

// runParallel runs cfg on a core.Parallel of workers devices of devCfg,
// over the environment RunParallel builds. Each epoch's result sums the
// workers' counts and concatenates their step losses in worker order.
func runParallel(workers int, devCfg device.Config) goldenRun {
	return func(cfg Config, epochs int) ([]core.EpochResult, error) {
		e, err := newEnv(cfg, slices.Repeat([]device.Config{devCfg}, workers)...)
		if err != nil {
			return nil, err
		}
		defer e.close()
		p, err := core.NewParallel(e.ds, e.devs, e.budget, e.cache, e.rec, e.cfg.EngineOptions())
		if err != nil {
			return nil, err
		}
		defer p.Close()
		var out []core.EpochResult
		for ep := range epochs {
			_, ws, err := p.TrainEpochCtx(context.Background(), ep)
			if err != nil {
				return out, err
			}
			var st core.EpochResult
			for _, w := range ws {
				st.Batches += w.Batches
				st.BackendReads += w.BackendReads
				st.BytesRead += w.BytesRead
				st.BytesReused += w.BytesReused
				st.FB.ReuseHits += w.FB.ReuseHits
				st.StepLosses = append(st.StepLosses, w.StepLosses...)
			}
			out = append(out, st)
		}
		return out, nil
	}
}

// checkGolden runs cfg for len(want) epochs and compares its step-loss
// hash, per-epoch counts and topology fault reads with the pins.
func checkGolden(t *testing.T, cfg Config, run goldenRun, hash uint64, want []goldenEpoch, faults int64) {
	t.Helper()
	defer DropDatasets()
	// The run reuses the dataset built here (filled as newEnv fills it, so
	// the cache key matches), so the device's reads from here on are the
	// run's: the planned ones and the page cache's.
	cfg.fill()
	ds, err := buildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Dev.Stats().Reads
	epochs, err := run(cfg, len(want))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	var got []goldenEpoch
	var planned int64
	for _, st := range epochs {
		if st.CheckpointErr != nil {
			t.Fatalf("checkpoint save failed: %v", st.CheckpointErr)
		}
		if st.Integrity.ChecksumFailures != 0 || (cfg.Integrity != nil && st.Integrity.UnverifiedReads != 0) {
			t.Fatalf("integrity: %+v", st.Integrity)
		}
		for _, v := range st.StepLosses {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		got = append(got, goldenEpoch{st.Batches, st.BackendReads, st.BytesRead, st.BytesReused,
			st.FB.ReuseHits})
		planned += st.BackendReads
	}
	// Every device read beyond the planned ones is a page-cache fault
	// on the index array.
	if got := ds.Dev.Stats().Reads - before - planned; got != faults {
		t.Errorf("load %q: %d topology fault reads, want %d", cfg.LoadFile, got, faults)
	}
	if h.Sum64() != hash {
		t.Errorf("load %q: step losses hash to %#016x, want %#016x", cfg.LoadFile, h.Sum64(), hash)
	}
	if !slices.Equal(got, want) {
		t.Errorf("load %q: epochs\n got %+v\nwant %+v", cfg.LoadFile, got, want)
	}
}

// saveLikeDatagen builds cfg's dataset as cmd/datagen -layout packed
// -out does — through the integrity layer, packed with cfg's model,
// batch and seed — saves it, and returns the container's path.
func saveLikeDatagen(t *testing.T, cfg Config) string {
	t.Helper()
	spec := cfg.Dataset
	spec.Dim = cfg.Dim
	ds, err := gen.BuildWith(spec, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	if err := PackDataset(ds, Config{Model: cfg.Model, BatchSize: cfg.BatchSize, Seed: cfg.Seed}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	if err := graph.Save(ds, path); err != nil {
		t.Fatal(err)
	}
	return path
}
