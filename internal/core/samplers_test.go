package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
)

// TestEngineBatchesMatchPool: the engine's epoch trains exactly the
// batches a bare sampler pool draws for the same seed and epoch, so a
// baseline sampling through the pool sees the engine's mini-batches.
func TestEngineBatchesMatchPool(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.Seed = 5
	e := newEngine(t, rig, opts)
	const epoch = 1
	var mu sync.Mutex
	engine := map[int]sample.Batch{}
	e.testExtractHook = func(_ context.Context, b *sample.Batch) {
		c := sample.Batch{ID: b.ID, NumTargets: b.NumTargets, Nodes: slices.Clone(b.Nodes)}
		for _, l := range b.Layers {
			c.Layers = append(c.Layers, sample.Layer{Src: slices.Clone(l.Src), Dst: slices.Clone(l.Dst)})
		}
		mu.Lock()
		engine[b.ID] = c
		mu.Unlock()
	}
	if _, err := e.TrainEpochFrom(context.Background(), epoch, 0); err != nil {
		t.Fatal(err)
	}

	pool := sample.Pool{Workers: 3, Fanouts: e.opts.Fanouts, Seed: e.opts.Seed,
		Reader: func(context.Context) graph.NeighborReader { return graph.NewRawReader(rig.ds) }}
	plan := e.opts.Plan(rig.ds.TrainIdx, epoch)
	drawn := 0
	err := pool.Run(context.Background(), epoch, plan.Batches, 0, func(b *sample.Batch, _ sample.Cost) error {
		mu.Lock()
		defer mu.Unlock()
		drawn++
		got, ok := engine[b.ID]
		if !ok {
			t.Errorf("engine never extracted batch %d", b.ID)
		} else if !reflect.DeepEqual(got.Nodes, b.Nodes) || !reflect.DeepEqual(got.Layers, b.Layers) {
			t.Errorf("batch %d: engine and pool sampled different subgraphs", b.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if drawn != len(engine) {
		t.Fatalf("pool drew %d batches, engine extracted %d", drawn, len(engine))
	}
}
