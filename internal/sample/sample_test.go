package sample_test

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

func tinyDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.InstantConfig()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	return ds
}

func TestSampleBatchStructure(t *testing.T) {
	ds := tinyDataset(t)
	s := sample.New(graph.NewRawReader(ds), []int{5, 5}, tensor.NewRNG(1))
	targets := []int64{3, 17, 42, 99}
	b, _, err := s.SampleBatch(7, targets)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 7 || b.NumTargets != 4 {
		t.Fatalf("batch meta %+v", b)
	}
	for i, tg := range targets {
		if b.Nodes[i] != tg {
			t.Fatalf("Nodes[%d]=%d want target %d", i, b.Nodes[i], tg)
		}
	}
	if len(b.Layers) != 2 {
		t.Fatalf("layers %d", len(b.Layers))
	}
	// Nodes must be unique.
	seen := map[int64]bool{}
	for _, v := range b.Nodes {
		if seen[v] {
			t.Fatalf("duplicate node %d", v)
		}
		seen[v] = true
		if v < 0 || v >= ds.NumNodes {
			t.Fatalf("node %d out of range", v)
		}
	}
	// Edge endpoints must index into Nodes; dst of layer 0 must be a target.
	for li, l := range b.Layers {
		if len(l.Src) != len(l.Dst) {
			t.Fatalf("layer %d src/dst length mismatch", li)
		}
		for i := range l.Src {
			if int(l.Src[i]) >= len(b.Nodes) || int(l.Dst[i]) >= len(b.Nodes) {
				t.Fatalf("layer %d edge %d out of node range", li, i)
			}
		}
	}
	for _, d := range b.Layers[0].Dst {
		if int(d) >= b.NumTargets {
			t.Fatalf("hop-1 edge targets non-seed node %d", d)
		}
	}
}

func TestFanoutRespected(t *testing.T) {
	ds := tinyDataset(t)
	fan := 3
	s := sample.New(graph.NewRawReader(ds), []int{fan}, tensor.NewRNG(2))
	b, _, err := s.SampleBatch(0, []int64{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	perDst := map[int32]int{}
	for i := range b.Layers[0].Dst {
		perDst[b.Layers[0].Dst[i]]++
	}
	for d, n := range perDst {
		// fanout neighbors + 1 self-loop
		if n > fan+1 {
			t.Fatalf("target %d has %d edges, fanout %d", d, n, fan)
		}
	}
}

func TestSelfLoopAlwaysPresent(t *testing.T) {
	ds := tinyDataset(t)
	s := sample.New(graph.NewRawReader(ds), []int{4, 4}, tensor.NewRNG(3))
	b, _, err := s.SampleBatch(0, []int64{11, 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range b.Layers {
		selfCount := 0
		for i := range l.Src {
			if l.Src[i] == l.Dst[i] {
				selfCount++
			}
		}
		if selfCount == 0 {
			t.Fatal("layer has no self-loops")
		}
	}
}

func TestSampledNeighborsAreRealNeighbors(t *testing.T) {
	ds := tinyDataset(t)
	r := graph.NewRawReader(ds)
	s := sample.New(graph.NewRawReader(ds), []int{6, 6}, tensor.NewRNG(4))
	b, _, err := s.SampleBatch(0, []int64{5, 50, 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range b.Layers {
		for i := range l.Src {
			src, dst := b.Nodes[l.Src[i]], b.Nodes[l.Dst[i]]
			if src == dst {
				continue // self-loop
			}
			ns, _, _ := r.Neighbors(dst, nil)
			found := false
			for _, u := range ns {
				if int64(u) == src {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not in the graph", src, dst)
			}
		}
	}
}

func TestDuplicateTargetsRejected(t *testing.T) {
	ds := tinyDataset(t)
	s := sample.New(graph.NewRawReader(ds), []int{2}, tensor.NewRNG(5))
	if _, _, err := s.SampleBatch(0, []int64{1, 1}); err == nil {
		t.Fatal("expected duplicate-target error")
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	ds := tinyDataset(t)
	run := func() *sample.Batch {
		s := sample.New(graph.NewRawReader(ds), []int{5, 5}, tensor.NewRNG(42))
		b, _, err := s.SampleBatch(0, []int64{7, 8, 9})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("node counts differ")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("node lists differ with same seed")
		}
	}
}

func TestSampleBatchIntoReusedBatchMatchesFresh(t *testing.T) {
	ds := tinyDataset(t)
	// Two samplers with identical seeds: one allocates fresh batches, the
	// other reuses a single batch (pre-dirtied) across all rounds. Every
	// round must produce identical subgraphs.
	fresh := sample.New(graph.NewRawReader(ds), []int{4, 3}, tensor.NewRNG(77))
	reused := sample.New(graph.NewRawReader(ds), []int{4, 3}, tensor.NewRNG(77))
	b := &sample.Batch{}
	for round := 0; round < 8; round++ {
		targets := []int64{int64(round * 11), int64(round*11 + 5), int64(round*11 + 9)}
		want, _, err := fresh.SampleBatch(round, targets)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reused.SampleBatchInto(b, round, targets); err != nil {
			t.Fatal(err)
		}
		if b.ID != want.ID || b.NumTargets != want.NumTargets {
			t.Fatalf("round %d meta: got %d/%d want %d/%d", round, b.ID, b.NumTargets, want.ID, want.NumTargets)
		}
		if len(b.Nodes) != len(want.Nodes) {
			t.Fatalf("round %d node count %d want %d", round, len(b.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if b.Nodes[i] != want.Nodes[i] {
				t.Fatalf("round %d node %d: %d want %d", round, i, b.Nodes[i], want.Nodes[i])
			}
		}
		if len(b.Layers) != len(want.Layers) {
			t.Fatalf("round %d layers %d want %d", round, len(b.Layers), len(want.Layers))
		}
		for li := range want.Layers {
			g, w := b.Layers[li], want.Layers[li]
			if len(g.Src) != len(w.Src) {
				t.Fatalf("round %d layer %d edges %d want %d", round, li, len(g.Src), len(w.Src))
			}
			for i := range w.Src {
				if g.Src[i] != w.Src[i] || g.Dst[i] != w.Dst[i] {
					t.Fatalf("round %d layer %d edge %d differs", round, li, i)
				}
			}
		}
	}
}

func TestSampleBatchIntoSteadyStateDoesNotGrow(t *testing.T) {
	ds := tinyDataset(t)
	s := sample.New(graph.NewRawReader(ds), []int{3, 3}, tensor.NewRNG(9))
	b := &sample.Batch{}
	targets := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	// Warm: let batch and sampler scratch reach their high-water marks.
	for i := 0; i < 20; i++ {
		if _, err := s.SampleBatchInto(b, i, targets); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.SampleBatchInto(b, 0, targets); err != nil {
			t.Fatal(err)
		}
	})
	// The raw reader itself may allocate on occasional growth; the sampler
	// must not add steady-state allocations of its own.
	if allocs > 1 {
		t.Fatalf("steady-state SampleBatchInto allocates %.1f/op", allocs)
	}
}

func TestNewPlanCoversAllTargets(t *testing.T) {
	f := func(seed uint64, nRaw uint16, bsRaw uint8) bool {
		n := int(nRaw%500) + 1
		bs := int(bsRaw%60) + 1
		train := make([]int64, n)
		for i := range train {
			train[i] = int64(i * 3)
		}
		p := sample.NewPlan(train, bs, tensor.NewRNG(seed))
		seen := map[int64]int{}
		for _, b := range p.Batches {
			if len(b) > bs || len(b) == 0 {
				return false
			}
			for _, v := range b {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlanUnshuffledPreservesOrder(t *testing.T) {
	train := []int64{10, 20, 30, 40, 50}
	p := sample.NewPlan(train, 2, nil)
	if len(p.Batches) != 3 || p.Batches[0][0] != 10 || p.Batches[2][0] != 50 {
		t.Fatalf("plan %v", p.Batches)
	}
}

func TestEstimateMaxBatchNodes(t *testing.T) {
	ds := tinyDataset(t)
	est, err := sample.EstimateMaxBatchNodes(ds, 32, []int{10, 10}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est < 32 {
		t.Fatalf("estimate %d below batch size", est)
	}
	if est > int(ds.NumNodes) {
		t.Fatalf("estimate %d above graph size", est)
	}
}

func TestSamplerPanicsOnBadFanout(t *testing.T) {
	ds := tinyDataset(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sample.New(graph.NewRawReader(ds), []int{0}, tensor.NewRNG(1))
}

// plainReader hides every capability of the reader it wraps but
// Neighbors, the way bench's probe and the neighbor caches do.
type plainReader struct{ graph.NeighborReader }

// TestPrefetcherReaderYieldsIdenticalBatches: the windowed prefetch is
// content-transparent. The same seeds through a raw reader, a cached
// reader the sampler prefetches through, and the same cached reader with
// the capability hidden give identical batches, under a page cache small
// enough that windows evict each other's pages.
func TestPrefetcherReaderYieldsIdenticalBatches(t *testing.T) {
	ds := tinyDataset(t)
	var caches []*pagecache.Cache
	cached := func() *graph.CachedReader {
		cache := pagecache.New(ds.Dev, hostmem.NewBudget(3*pagecache.PageSize))
		caches = append(caches, cache)
		return graph.NewCachedReader(ds, cache, graph.IndicesFile(ds, cache))
	}
	fanouts := []int{5, 5}
	raw := sample.New(graph.NewRawReader(ds), fanouts, tensor.NewRNG(1))
	prefetching := sample.New(cached(), fanouts, tensor.NewRNG(2))
	plain := sample.New(plainReader{cached()}, fanouts, tensor.NewRNG(3))
	targets := make([]int64, 150) // more than two windows of targets
	for round := 0; round < 6; round++ {
		for i := range targets {
			targets[i] = (int64(round)*977 + int64(i)*13) % ds.NumNodes
		}
		seed := sample.BatchSeed(9, 0, round)
		var got [3]sample.Batch
		for i, s := range []*sample.Sampler{raw, prefetching, plain} {
			s.Reseed(seed)
			if _, err := s.SampleBatchInto(&got[i], round, targets); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("round %d: prefetching reader's batch differs from the raw reader's", round)
		}
		if !reflect.DeepEqual(got[0], got[2]) {
			t.Fatalf("round %d: plain cached reader's batch differs from the raw reader's", round)
		}
	}
	for i, c := range caches {
		if s := c.Stats(); s.Evictions == 0 {
			t.Fatalf("cache %d never evicted (%+v): the test exercises no pressure", i, s)
		}
	}
}

// windowRecorder is a Prefetcher that checks the sampler's side of the
// contract: windows of at most 64 nodes, every Neighbors call inside the
// held window, and a Release for every Prefetch — also when a read fails.
type windowRecorder struct {
	graph.NeighborReader
	t        *testing.T
	held     map[int64]bool
	windows  int
	failNode int64
}

func (r *windowRecorder) Prefetch(nodes []int64) (time.Duration, error) {
	if r.held != nil {
		r.t.Error("Prefetch while the previous window is still held")
	}
	if len(nodes) == 0 || len(nodes) > 64 {
		r.t.Errorf("window of %d nodes", len(nodes))
	}
	r.held = make(map[int64]bool, len(nodes))
	for _, v := range nodes {
		r.held[v] = true
	}
	r.windows++
	return time.Microsecond, nil
}

func (r *windowRecorder) Release() {
	if r.held == nil {
		r.t.Error("Release with no window held")
	}
	r.held = nil
}

func (r *windowRecorder) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	if !r.held[v] {
		r.t.Errorf("Neighbors(%d) outside the prefetched window", v)
	}
	if v == r.failNode {
		return nil, 0, errors.New("read failed")
	}
	return r.NeighborReader.Neighbors(v, buf)
}

func TestSamplerWindowsTheFrontier(t *testing.T) {
	ds := tinyDataset(t)
	rec := &windowRecorder{NeighborReader: graph.NewRawReader(ds), t: t, failNode: -1}
	s := sample.New(rec, []int{4, 4}, tensor.NewRNG(5))
	targets := make([]int64, 130)
	for i := range targets {
		targets[i] = int64(i * 3)
	}
	var b sample.Batch
	ioWait, err := s.SampleBatchInto(&b, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	if rec.held != nil {
		t.Fatal("last window never released")
	}
	// 130 targets are three windows; the second hop adds at least one.
	if rec.windows < 4 || ioWait != time.Duration(rec.windows)*time.Microsecond {
		t.Fatalf("%d windows, ioWait %v: want at least 4, each adding its 1µs", rec.windows, ioWait)
	}

	rec.failNode = targets[70]
	if _, err := s.SampleBatchInto(&b, 1, targets); err == nil {
		t.Fatal("failing read did not fail the batch")
	}
	if rec.held != nil {
		t.Fatal("window still held after a failed read")
	}
}
