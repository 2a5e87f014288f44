//go:build goexperiment.synctest

package trainsim

import (
	"context"
	"path/filepath"
	"testing"
	"testing/synctest"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/storage/sim"
)

// runVirtual runs cfg for epochs epochs inside a synctest bubble and
// returns its epochs. The dataset cache is dropped on entry and again
// before leaving, so the run neither reuses a sim device whose channel
// timers live outside the bubble nor leaves its own behind. The
// result leaves the bubble through a channel made outside it: the race
// detector does not order a plain write inside synctest.Run before a
// read after it.
func runVirtual(t *testing.T, cfg Config, epochs int) []EpochStats {
	t.Helper()
	out := make(chan Result, 1)
	synctest.Run(func() {
		DropDatasets()
		defer DropDatasets()
		res, err := RunCtx(context.Background(), cfg, GNNDriveGPU, RunOptions{Epochs: epochs})
		if err != nil {
			t.Error(err)
		}
		out <- res
	})
	return (<-out).Epochs
}

// TestVirtualEpochRepeats runs one modeled InOrder GNNDrive job twice on
// synctest's virtual clock (GOEXPERIMENT=synctest), each run in its own
// bubble. The work an epoch does must repeat exactly: batches, backend
// reads, bytes read and feature-buffer reuse hits. The modeled epoch
// times are logged, not asserted: they drift by a fraction of a
// millisecond between runs. Each dataset is synthesised once, outside
// the bubbles, and both runs load it from the saved container.
func TestVirtualEpochRepeats(t *testing.T) {
	for _, spec := range []gen.Spec{gen.Tiny(), gen.Papers()} {
		t.Run(spec.Name, func(t *testing.T) {
			ds, err := gen.BuildWith(spec, sim.Factory(sim.InstantConfig()))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), spec.Name+".gnnd")
			err = graph.Save(ds, path)
			ds.Dev.Close()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{LoadFile: path, Backend: "sim", Scale: 0.5, TrainLimit: 2000,
				Hidden: 32, InOrder: true, Seed: 1}
			a, b := runVirtual(t, cfg, 2), runVirtual(t, cfg, 2)
			for e := range a {
				x, y := a[e], b[e]
				t.Logf("epoch %d: modeled %v vs %v", e, x.Total, y.Total)
				if x.Batches != y.Batches || x.BackendReads != y.BackendReads ||
					x.BytesRead != y.BytesRead || x.FB.ReuseHits != y.FB.ReuseHits {
					t.Errorf("epoch %d: batches %d/%d, reads %d/%d, bytes read %d/%d, reuse hits %d/%d differ between runs",
						e, x.Batches, y.Batches, x.BackendReads, y.BackendReads,
						x.BytesRead, y.BytesRead, x.FB.ReuseHits, y.FB.ReuseHits)
				}
			}
		})
	}
}
