package ginex

import (
	"errors"
	"testing"

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

func testOpts(ds *graph.Dataset) Options {
	o := DefaultOptions(nn.GraphSAGE)
	o.BatchSize = 40
	o.Fanouts = []int{4, 4}
	o.Superbatch = 6
	o.NeighborCacheBytes = 64 << 10
	o.FeatureCacheBytes = 64 << 10
	// Scratch lives past the dataset end.
	o.ScratchOff = ds.Layout.FeaturesOff + ds.Layout.FeaturesLen
	o.ScratchLen = 1 << 19
	return o
}

func TestTrainEpochCompletes(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	want := (len(ds.TrainIdx) + 39) / 40
	if res.Batches != want {
		t.Fatalf("batches %d want %d", res.Batches, want)
	}
	if res.CacheHits == 0 {
		t.Fatal("feature cache never hit")
	}
	if res.CacheMiss == 0 {
		t.Fatal("feature cache never missed (cache too big for the test)")
	}
}

func TestCacheOOM(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 128<<10)
	opts := testOpts(ds)
	opts.FeatureCacheBytes = 512 << 10 // exceeds budget
	_, err := New(ds, gpu, budget, rec, opts)
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	if budget.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", budget.Pinned())
	}
}

func TestRealTrainingLearns(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
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
		res, err := s.TrainEpoch(e)
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
	ds, gpu, budget, rec := newRig(t, 64<<20)
	opts := testOpts(ds)
	opts.RealTrain = true
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.TrainEpoch(0); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for v := int64(0); v < ds.NumNodes && checked < 100; v++ {
		row := s.fcache.get(v)
		if row == nil {
			continue
		}
		want := ds.ReadFeatureRaw(v, nil)
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
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.ncache.lists) == 0 {
		t.Fatal("neighbor cache empty")
	}
	// The hottest node must be cached and served identically to raw.
	var hottest int64
	for v := int64(1); v < ds.NumNodes; v++ {
		if ds.Degree(v) > ds.Degree(hottest) {
			hottest = v
		}
	}
	if _, ok := s.ncache.lists[hottest]; !ok {
		t.Fatal("highest-degree node not cached")
	}
	r := s.ncache.reader()
	got, wait, err := r.Neighbors(hottest, nil)
	if err != nil || wait != 0 {
		t.Fatalf("cached read err=%v wait=%v", err, wait)
	}
	want, _, _ := graph.NewRawReader(ds).Neighbors(hottest, nil)
	if len(got) != len(want) {
		t.Fatalf("cached neighbors %d want %d", len(got), len(want))
	}
	// An uncached node must also read correctly (aligned SSD read).
	var cold int64 = -1
	for v := int64(0); v < ds.NumNodes; v++ {
		if _, ok := s.ncache.lists[v]; !ok && ds.Degree(v) > 0 {
			cold = v
			break
		}
	}
	if cold >= 0 {
		got, _, err := r.Neighbors(cold, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := graph.NewRawReader(ds).Neighbors(cold, nil)
		if len(got) != len(want) {
			t.Fatalf("cold neighbors %v want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cold neighbors %v want %v", got, want)
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
	ds, _, budget, _ := newRig(t, 64<<20)
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
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.SampleOnly(0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("sample time must be positive")
	}
}

func TestCloseUnpinsAll(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
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
