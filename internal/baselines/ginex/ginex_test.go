package ginex

import (
	"context"
	"errors"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
)

func newRig(t *testing.T, budgetBytes int64) (*graph.Dataset, *device.Device, *hostmem.Budget, *metrics.Recorder) {
	t.Helper()
	spec := gen.Tiny()
	dev := sim.New(spec.SizeBytes()+1<<20, sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	ds, err := gen.Build(spec, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	gpu := device.New(device.InstantConfig())
	t.Cleanup(func() { gpu.Close() })
	return ds, gpu, hostmem.NewBudget(budgetBytes), metrics.NewRecorder()
}

// testBudget holds tiny's 24 KB of indptr and label pins, caches of 49 KB
// (neighbours) and 196 KB (features, three quarters of the table, so an
// epoch both hits and misses), and the 19 KB left over holds one batch's
// gather tensor of at most 10+30+90 nodes.
const testBudget = 288 << 10

func testOpts(ds *graph.Dataset) Options {
	o := Options{Knobs: core.DefaultKnobs(nn.GraphSAGE)}
	o.BatchSize = 10
	o.Fanouts = []int{3, 3}
	// Scratch lives past the dataset end.
	o.ScratchOff = ds.Layout.FeaturesOff + ds.Layout.FeaturesLen
	o.ScratchLen = 1 << 19
	return o
}

func TestTrainEpochCompletes(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	opts := testOpts(ds)
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (len(ds.TrainIdx) + opts.BatchSize - 1) / opts.BatchSize
	if res.Batches != want {
		t.Fatalf("batches %d want %d", res.Batches, want)
	}
	if res.BytesReused == 0 {
		t.Fatal("feature cache never hit")
	}
	if res.NodesExtracted == 0 {
		t.Fatal("feature cache never missed (cache too big for the test)")
	}
}

func TestCacheOOM(t *testing.T) {
	// The caches take 85 % of the budget, which leaves less than the
	// 24 KB of pins.
	ds, gpu, budget, rec := newRig(t, 128<<10)
	_, err := New(ds, gpu, budget, rec, testOpts(ds))
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	if budget.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", budget.Pinned())
	}
}

func TestRealTrainingLearns(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	opts := testOpts(ds)
	opts.RealTrain = true
	opts.Hidden = 32
	opts.LR = 0.01
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var first, last float64
	for e := 0; e < 3; e++ {
		res, err := s.TrainEpoch(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Fatalf("loss %v -> %v did not improve", first, last)
	}
}

func TestRealFeatureCacheServesCorrectBytes(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	opts := testOpts(ds)
	opts.RealTrain = true
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.TrainEpoch(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for v := int64(0); v < ds.NumNodes && checked < 100; v++ {
		row := s.fcache.get(v)
		if row == nil {
			continue
		}
		want, err := ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("node %d dim %d: cache %v disk %v", v, j, row[j], want[j])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing cached")
	}
}

func TestNeighborCacheHoldsHighDegreeNodes(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The hottest node must be served from memory, with no device read.
	var hottest int64
	for v := int64(1); v < ds.NumNodes; v++ {
		if ds.Degree(v) > ds.Degree(hottest) {
			hottest = v
		}
	}
	r := s.ncache.Reader(context.Background())
	reads := ds.Dev.Stats().Reads
	if _, wait, err := r.Neighbors(hottest, nil); err != nil || wait != 0 || ds.Dev.Stats().Reads != reads {
		t.Fatalf("highest-degree node not cached: err=%v wait=%v device reads %d", err, wait, ds.Dev.Stats().Reads-reads)
	}
	// Every list, cached or read from SSD (aligned direct read), must
	// match the raw topology.
	raw := graph.NewRawReader(ds)
	for v := int64(0); v < ds.NumNodes; v++ {
		got, _, err := r.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := raw.Neighbors(v, nil)
		if len(got) != len(want) {
			t.Fatalf("node %d: neighbors %v want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d: neighbors %v want %v", v, got, want)
			}
		}
	}
}

func TestBeladyPrefersFartherNextUse(t *testing.T) {
	// Three batches: node 1 used in batches 0 and 1; node 2 in 0 and 5;
	// with capacity 1 after loading both at batch 0, node 2 (farther next
	// use) must be evicted first.
	mk := func(nodes ...int64) *sample.Batch { return &sample.Batch{Nodes: nodes} }
	batches := []*sample.Batch{mk(1, 2), mk(1), mk(), mk(), mk(), mk(2)}
	sched := newSchedule(batches)
	if sched.nextUse(1, 1) != 1 || sched.nextUse(2, 1) != 5 {
		t.Fatalf("nextUse wrong: %d %d", sched.nextUse(1, 1), sched.nextUse(2, 1))
	}
	ds, _, budget, _ := newRig(t, testBudget)
	fc, err := newFeatureCache(ds, budget, ds.FeatBytes(), false) // capacity 1
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, ds.FeatBytes())
	fc.insert(1, sched, 0, raw)
	fc.insert(2, sched, 0, raw)
	// Capacity 1: inserting 2 evicts 1 (the only resident).
	if fc.contains(1) || !fc.contains(2) {
		t.Fatal("capacity-1 eviction wrong")
	}
	// Capacity 2: both resident after batch 0 (touched there); inserting
	// node 3 at batch 1 must evict node 2 (next use 5 > node 1's 1).
	fc2, err := newFeatureCache(ds, budget, 2*ds.FeatBytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	batches = append(batches, mk(3))
	sched = newSchedule(batches)
	fc2.insert(1, sched, -1, raw) // preloaded before batch 0
	fc2.insert(2, sched, -1, raw)
	fc2.touch(1, sched, 0) // both hit in batch 0
	fc2.touch(2, sched, 0)
	fc2.insert(3, sched, 1, raw)
	if !fc2.contains(1) || fc2.contains(2) || !fc2.contains(3) {
		t.Fatalf("Belady eviction wrong: 1=%v 2=%v 3=%v", fc2.contains(1), fc2.contains(2), fc2.contains(3))
	}
}

func TestSampleOnly(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.SampleOnly(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("sample time must be positive")
	}
}

func TestCloseUnpinsAll(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if budget.Pinned() != 0 {
		t.Fatalf("pinned %d after close", budget.Pinned())
	}
}
