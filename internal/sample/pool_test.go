package sample_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// poolBatches runs one epoch of a pool over ds's training split and
// returns the batches by ID.
func poolBatches(t *testing.T, ds *graph.Dataset, workers int, seed uint64, epoch int) []*sample.Batch {
	t.Helper()
	plan := sample.NewPlan(ds.TrainIdx, 40, tensor.NewRNG(sample.PlanSeed(seed, epoch)))
	out := make([]*sample.Batch, len(plan.Batches))
	var mu sync.Mutex
	p := sample.Pool{Workers: workers, Fanouts: []int{4, 3}, Seed: seed,
		Reader: func(context.Context) graph.NeighborReader { return graph.NewRawReader(ds) }}
	err := p.Run(context.Background(), epoch, plan.Batches, 0, func(b *sample.Batch, _ sample.Cost) error {
		mu.Lock()
		defer mu.Unlock()
		if out[b.ID] != nil {
			t.Errorf("batch %d emitted twice", b.ID)
		}
		out[b.ID] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b == nil {
			t.Fatalf("batch %d never emitted", i)
		}
	}
	return out
}

// TestPoolBatchesIndependentOfWorkers: batch i of an epoch is the same
// subgraph whichever of however many workers draws it.
func TestPoolBatchesIndependentOfWorkers(t *testing.T) {
	ds := tinyDataset(t)
	one := poolBatches(t, ds, 1, 7, 2)
	four := poolBatches(t, ds, 4, 7, 2)
	for i := range one {
		if !reflect.DeepEqual(one[i].Nodes, four[i].Nodes) || !reflect.DeepEqual(one[i].Layers, four[i].Layers) {
			t.Fatalf("batch %d differs between 1 and 4 workers", i)
		}
	}
	// The same batch of another epoch is a different draw.
	if other := poolBatches(t, ds, 4, 7, 3); reflect.DeepEqual(one[0].Nodes, other[0].Nodes) {
		t.Fatal("epochs 2 and 3 drew identical first batches")
	}
}

func TestPoolStopsOnEmitErrorAndCancel(t *testing.T) {
	ds := tinyDataset(t)
	plan := sample.NewPlan(ds.TrainIdx, 10, nil)
	p := sample.Pool{Workers: 3, Fanouts: []int{2}, Seed: 1,
		Reader: func(context.Context) graph.NeighborReader { return graph.NewRawReader(ds) }}
	boom := errors.New("boom")
	var mu sync.Mutex
	emitted := 0
	err := p.Run(context.Background(), 0, plan.Batches, 0, func(*sample.Batch, sample.Cost) error {
		mu.Lock()
		defer mu.Unlock()
		emitted++
		return boom
	})
	if !errors.Is(err, boom) || emitted > 3 {
		t.Fatalf("emit error: err=%v after %d emits, want boom after at most one per worker", err, emitted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = p.Run(ctx, 0, plan.Batches, 0, func(*sample.Batch, sample.Cost) error {
		t.Error("emitted after cancel")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err=%v", err)
	}
	// A cursor already past the end draws nothing and is not an error.
	if err := p.Run(ctx, 0, plan.Batches, len(plan.Batches), nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

// failAt is a neighbor reader that fails on one node.
type failAt struct {
	graph.NeighborReader
	bad int64
}

func (r failAt) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	if v == r.bad {
		return nil, 0, errors.New("bad node")
	}
	return r.NeighborReader.Neighbors(v, buf)
}

// TestPoolRunInOrder: RunInOrder emits every batch in index order whatever
// the worker count, and a batch that fails to sample releases the workers
// waiting for their turn behind it.
func TestPoolRunInOrder(t *testing.T) {
	ds := tinyDataset(t)
	plan := sample.NewPlan(ds.TrainIdx, 10, nil)
	p := sample.Pool{Workers: 4, Fanouts: []int{2}, Seed: 1,
		Reader: func(context.Context) graph.NeighborReader { return graph.NewRawReader(ds) }}
	next := 2
	err := p.RunInOrder(context.Background(), 0, plan.Batches, next, func(b *sample.Batch, _ sample.Cost) error {
		if b.ID != next {
			t.Errorf("emitted batch %d, want %d", b.ID, next)
		}
		next++
		return nil
	})
	if err != nil || next != len(plan.Batches) {
		t.Fatalf("err=%v after emitting up to %d of %d", err, next, len(plan.Batches))
	}

	p.Reader = func(context.Context) graph.NeighborReader {
		return failAt{graph.NewRawReader(ds), plan.Batches[3][0]}
	}
	err = p.RunInOrder(context.Background(), 0, plan.Batches, 0, func(b *sample.Batch, _ sample.Cost) error {
		if b.ID >= 3 {
			t.Errorf("emitted batch %d past the failed batch 3", b.ID)
		}
		return nil
	})
	if err == nil {
		t.Fatal("a failed batch did not fail the run")
	}
}
