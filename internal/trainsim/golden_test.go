package trainsim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"testing"

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

// TestRealInOrderCheckpointGolden runs real float32 training in order on
// the tiny dataset and pins the step losses, hashed bit for bit as the
// benchmark hashes them (fnv64a over each loss's float32 bits,
// little-endian), and each epoch's batches, backend reads, bytes read,
// bytes reused and feature-buffer hits.
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
	for _, tc := range []struct {
		name   string
		config func(dir string) Config
		hash   uint64
		epochs []goldenEpoch
	}{
		{"ckpt/seed1", ckpt(1), 0x7f141ec57f01a095, []goldenEpoch{
			{12, 148, 1228288, 1145216, 8947},
			{12, 12, 10240, 1412864, 11038},
			{12, 0, 0, 1400320, 10940},
		}},
		{"ckpt/seed2", ckpt(2), 0xdc6a31911bfbee2d, []goldenEpoch{
			{12, 142, 1222144, 1147520, 8965},
			{12, 4, 2048, 1395712, 10904},
			{12, 0, 0, 1399040, 10930},
		}},
		{"packed_verify", packedVerify, 0x3cb71d156932f9d6, []goldenEpoch{
			{12, 58, 822272, 3582000, 8955},
			{12, 6, 8704, 4307200, 10768},
			{12, 0, 0, 4376800, 10942},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config(t.TempDir())
			checkGolden(t, cfg, tc.hash, tc.epochs)
			if cfg.Layout != "packed" {
				return
			}
			cfg.LoadFile = saveLikeDatagen(t, cfg)
			cfg.DataFile = filepath.Join(t.TempDir(), "loaded.img")
			checkGolden(t, cfg, tc.hash, tc.epochs)
		})
	}
}

// checkGolden runs cfg for len(want) epochs and compares its step-loss
// hash and per-epoch counts with the pins.
func checkGolden(t *testing.T, cfg Config, hash uint64, want []goldenEpoch) {
	t.Helper()
	defer DropDatasets()
	res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: len(want)})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	var got []goldenEpoch
	var hits int64
	for _, st := range res.Epochs {
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
		// The buffer's hit count is cumulative over the run.
		got = append(got, goldenEpoch{st.Batches, st.BackendReads, st.BytesRead, st.BytesReused,
			st.FB.ReuseHits - hits})
		hits = st.FB.ReuseHits
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
