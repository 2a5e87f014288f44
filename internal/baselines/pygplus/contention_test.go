package pygplus

import (
	"context"
	"testing"

	"gnndrive/internal/graph"
	"gnndrive/internal/nn"
)

// TestFeatureStreamingEvictsTopologyPages verifies the O1 memory-
// contention mechanism structurally: with a budget smaller than the
// feature table, running the full SET loop must evict topology pages
// from the shared cache, so re-reading topology afterwards misses —
// whereas after a sample-only epoch the topology stays resident.
func TestFeatureStreamingEvictsTopologyPages(t *testing.T) {
	topoMisses := func(full bool) int64 {
		// Budget: fits the topology (~96 KB) with room, but far below
		// the 256 KB feature table once pins are subtracted.
		r := newRig(t, 400<<10)
		opts := testOpts()
		s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if full {
			if _, err := s.TrainEpoch(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.SampleOnly(0); err != nil {
				t.Fatal(err)
			}
		}
		// Re-walk the topology and count fresh faults.
		before := r.cache.Stats().Misses
		reader := graph.NewCachedReader(r.ds, r.cache, s.idxFile)
		for v := int64(0); v < r.ds.NumNodes; v += 4 {
			if _, _, err := reader.Neighbors(v, nil); err != nil {
				t.Fatal(err)
			}
		}
		return r.cache.Stats().Misses - before
	}
	afterSampleOnly := topoMisses(false)
	afterFull := topoMisses(true)
	if afterFull <= afterSampleOnly {
		t.Fatalf("topology misses after full SET (%d) should exceed sample-only (%d): contention not reproduced",
			afterFull, afterSampleOnly)
	}
}

// TestGATUsesReducedFanout mirrors the paper's (10,10,5) GAT setting.
func TestGATUsesReducedFanout(t *testing.T) {
	o := DefaultOptions(nn.GAT)
	if o.Fanouts[len(o.Fanouts)-1] >= o.Fanouts[0] {
		t.Fatal("GAT last-hop fanout should be reduced")
	}
}
