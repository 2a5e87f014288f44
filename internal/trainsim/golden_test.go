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
)

// goldenEpoch is one epoch's data-path work: a fixed schedule's counts,
// which no change to the math may move.
type goldenEpoch struct {
	batches                       int
	reads, bytesRead, bytesReused int64
	featureBufferHits             int64
}

// TestRealInOrderCheckpointGolden runs the benchmark's real_inorder_ckpt
// configuration (real float32 training in order at hidden 64 on the file
// backend, a checkpoint every three steps) on the tiny dataset for three
// epochs. It pins the step losses, hashed bit for bit as the benchmark
// hashes them (fnv64a over each loss's float32 bits, little-endian), and
// each epoch's batches, backend reads, bytes read, bytes reused and
// feature-buffer hits. Hidden 64 sends every conv's output rows through
// the row kernel's widest lane block and the 8-class logits through its
// narrow ones, so a kernel that rounds one product differently moves the
// hash. The values were recorded with the SSE2 row kernel.
func TestRealInOrderCheckpointGolden(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		hash   uint64
		epochs []goldenEpoch
	}{
		{seed: 1, hash: 0x7f141ec57f01a095, epochs: []goldenEpoch{
			{12, 148, 1228288, 1145216, 8947},
			{12, 12, 10240, 1412864, 11038},
			{12, 0, 0, 1400320, 10940},
		}},
		{seed: 2, hash: 0xdc6a31911bfbee2d, epochs: []goldenEpoch{
			{12, 142, 1222144, 1147520, 8965},
			{12, 4, 2048, 1395712, 10904},
			{12, 0, 0, 1399040, 10930},
		}},
	} {
		defer DropDatasets()
		dir := t.TempDir()
		cfg := Config{Dataset: gen.Tiny(), Backend: "file", DataFile: filepath.Join(dir, "tiny.img"),
			RealTrain: true, InOrder: true, Hidden: 64, CheckpointEverySteps: 3,
			CheckpointDir: filepath.Join(dir, "ckpt"), Scale: 0.01, Seed: tc.seed}
		res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: len(tc.epochs)})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		h := fnv.New64a()
		var b [4]byte
		var got []goldenEpoch
		var hits int64
		for _, st := range res.Epochs {
			if st.CheckpointErr != nil {
				t.Fatalf("seed %d: checkpoint save failed: %v", tc.seed, st.CheckpointErr)
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
		if h.Sum64() != tc.hash {
			t.Errorf("seed %d: step losses hash to %#016x, want %#016x", tc.seed, h.Sum64(), tc.hash)
		}
		if !slices.Equal(got, tc.epochs) {
			t.Errorf("seed %d: epochs\n got %+v\nwant %+v", tc.seed, got, tc.epochs)
		}
	}
}
