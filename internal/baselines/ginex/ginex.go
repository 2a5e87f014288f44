// Package ginex re-implements the Ginex baseline (Park et al., VLDB'22;
// §2/§3 of the GNNDrive paper): SSD-based training that replaces the OS
// page cache with two dedicated in-memory caches and restructures each
// superbatch (a bundle of mini-batches) into phases:
//
//  1. sample every mini-batch of the superbatch in advance, persisting
//     the sampled node lists to SSD (extra write I/O the paper calls out);
//  2. an inspect pass that reads the lists back and computes the
//     provably-optimal (Belady) feature-cache replacement schedule;
//  3. a synchronous feature-cache initialization loading the schedule's
//     initial working set from SSD;
//  4. the per-mini-batch extract/transfer/train loop, where extraction
//     hits the feature cache and misses read the SSD synchronously,
//     evicting per the precomputed schedule.
//
// Separate neighbor/feature caches relieve the memory contention PyG+
// suffers (Fig. 2: Ginex-only ~ Ginex-all), but phases 1-3 are
// synchronous I/O bursts on the critical path — exactly the I/O
// congestion Fig. 3(b) shows.
package ginex

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/tensor"
)

// Options configures the Ginex baseline.
type Options struct {
	Model  nn.ModelKind
	Hidden int
	Layers int

	BatchSize int
	Fanouts   []int

	// Superbatch is the number of mini-batches sampled/inspected as one
	// unit (paper default 1,500; 150 at our scale keeps the paper's
	// one-superbatch-per-epoch shape).
	Superbatch int
	// NeighborCacheBytes and FeatureCacheBytes size the two caches
	// (paper defaults 6 GB and 24 GB with 32 GB hosts; set them from the
	// budget via DefaultCacheSizes).
	NeighborCacheBytes int64
	FeatureCacheBytes  int64
	// SampleWorkers parallelizes the superbatch sampling phase.
	SampleWorkers int

	// ScratchOff/ScratchLen locate the device region where sampled node
	// lists are persisted between the sample and inspect phases. Zero
	// length skips persistence (tests), losing its I/O cost.
	ScratchOff, ScratchLen int64

	Shuffle   bool
	RealTrain bool
	LR        float32
	Seed      uint64
}

// DefaultCacheSizes returns the paper's cache split for a host budget:
// the two caches occupy 85% of host memory (6:24 ratio).
func DefaultCacheSizes(budget int64) (neighbor, feature int64) {
	total := budget * 85 / 100
	neighbor = total * 6 / 30
	feature = total * 24 / 30
	return neighbor, feature
}

// DefaultOptions mirrors the paper's Ginex configuration at our scale.
func DefaultOptions(model nn.ModelKind) Options {
	fan := []int{3, 3, 3}
	if model == nn.GAT {
		fan = []int{3, 3, 2}
	}
	return Options{
		Model: model, Hidden: 256, Layers: 3,
		BatchSize: 50, Fanouts: fan,
		Superbatch:    150,
		SampleWorkers: 2,
		Shuffle:       true, LR: 0.003, Seed: 1,
	}
}

// System is a Ginex training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	rec    *metrics.Recorder
	opts   Options

	ncache *neighborCache
	fcache *featureCache

	model  *nn.Model
	optim  *nn.Adam
	pinned int64
	closed bool
}

// New builds the caches. Fails with hostmem.ErrOOM when the configured
// caches plus metadata exceed the budget (the paper's 8 GB OOMs).
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	rec *metrics.Recorder, opts Options) (*System, error) {
	d := DefaultOptions(opts.Model)
	if opts.BatchSize == 0 {
		opts.BatchSize = d.BatchSize
	}
	if len(opts.Fanouts) == 0 {
		opts.Fanouts = d.Fanouts
	}
	if opts.Hidden == 0 {
		opts.Hidden = d.Hidden
	}
	if opts.Layers == 0 {
		opts.Layers = d.Layers
	}
	if opts.Superbatch == 0 {
		opts.Superbatch = d.Superbatch
	}
	if opts.SampleWorkers == 0 {
		opts.SampleWorkers = d.SampleWorkers
	}
	if opts.LR == 0 {
		opts.LR = d.LR
	}
	if opts.Seed == 0 {
		opts.Seed = d.Seed
	}
	if opts.NeighborCacheBytes == 0 || opts.FeatureCacheBytes == 0 {
		n, f := DefaultCacheSizes(budget.Capacity())
		if opts.NeighborCacheBytes == 0 {
			opts.NeighborCacheBytes = n
		}
		if opts.FeatureCacheBytes == 0 {
			opts.FeatureCacheBytes = f
		}
	}
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, rec: rec, opts: opts}

	pins := ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := budget.Pin("ginex indptr+labels", pins); err != nil {
		return nil, err
	}
	s.pinned = pins

	nc, err := newNeighborCache(ds, budget, opts.NeighborCacheBytes)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ncache = nc
	fc, err := newFeatureCache(ds, budget, opts.FeatureCacheBytes, opts.RealTrain)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.fcache = fc

	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })
	if opts.RealTrain {
		cfg := nn.Config{Kind: opts.Model, InDim: ds.Dim, Hidden: opts.Hidden,
			Classes: ds.NumClasses, Layers: opts.Layers}
		s.model = nn.NewModel(cfg, tensor.NewRNG(opts.Seed*7919))
		s.optim = nn.NewAdam(opts.LR)
	}
	return s, nil
}

// Model returns the real-training model (nil in modeled mode).
func (s *System) Model() *nn.Model { return s.model }

// Close releases all host pins.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.fcache != nil {
		s.budget.Unpin(s.fcache.bytes)
		s.fcache = nil
	}
	if s.ncache != nil {
		s.budget.Unpin(s.ncache.bytes)
		s.ncache = nil
	}
	s.budget.Unpin(s.pinned)
}

// Result reports one epoch.
type Result struct {
	metrics.Breakdown
	Loss, Acc float64
	CacheHits int64
	CacheMiss int64
}

// TrainEpoch runs one epoch in superbatch phases.
func (s *System) TrainEpoch(epoch int) (Result, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	plan := s.plan(epoch)

	var lossSum, accSum float64
	var hits, misses int64
	for sbStart := 0; sbStart < len(plan.Batches); sbStart += s.opts.Superbatch {
		sbEnd := sbStart + s.opts.Superbatch
		if sbEnd > len(plan.Batches) {
			sbEnd = len(plan.Batches)
		}
		// Phase 1: sample the whole superbatch up front, persisting the
		// node lists.
		batches, err := s.sampleSuperbatch(epoch, plan, sbStart, sbEnd, &col)
		if err != nil {
			return Result{Breakdown: col.Snapshot(time.Since(start))}, err
		}
		// Phase 2: inspect — read the lists back and build the optimal
		// replacement schedule.
		sched, err := s.inspect(batches, &col)
		if err != nil {
			return Result{Breakdown: col.Snapshot(time.Since(start))}, err
		}
		// Phase 3: synchronous feature-cache initialization, after
		// re-keying the survivors of the previous superbatch.
		s.fcache.reschedule(sched)
		if err := s.initCache(sched, &col); err != nil {
			return Result{Breakdown: col.Snapshot(time.Since(start))}, err
		}
		// Phase 4: extract / transfer / train per mini-batch.
		for bi, b := range batches {
			h, m, err := s.extractBatch(b, sched, sbStart+bi, &col)
			hits += h
			misses += m
			if err != nil {
				return Result{Breakdown: col.Snapshot(time.Since(start))}, err
			}
			loss, acc, err := s.trainBatch(b, &col)
			if err != nil {
				return Result{Breakdown: col.Snapshot(time.Since(start))}, err
			}
			lossSum += loss
			accSum += acc
			col.Add(metrics.Counters{Batches: 1})
		}
	}
	res := Result{Breakdown: col.Snapshot(time.Since(start)), CacheHits: hits, CacheMiss: misses}
	if res.Batches > 0 && s.opts.RealTrain {
		res.Loss = lossSum / float64(res.Batches)
		res.Acc = accSum / float64(res.Batches)
	}
	return res, nil
}

func (s *System) plan(epoch int) *sample.Plan {
	var rng *tensor.RNG
	if s.opts.Shuffle {
		rng = tensor.NewRNG(s.opts.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	}
	return sample.NewPlan(s.ds.TrainIdx, s.opts.BatchSize, rng)
}

// sampleSuperbatch samples batches [sbStart, sbEnd) in parallel through
// the neighbor cache, then persists each node list to the scratch region.
func (s *System) sampleSuperbatch(epoch int, plan *sample.Plan, sbStart, sbEnd int,
	col *metrics.BreakdownCollector) ([]*sample.Batch, error) {
	n := sbEnd - sbStart
	batches := make([]*sample.Batch, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr errutil.FirstError
	for w := 0; w < s.opts.SampleWorkers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			reader := s.ncache.reader()
			smp := sample.New(reader, s.opts.Fanouts,
				tensor.NewRNG(s.opts.Seed+uint64(epoch)*1000+uint64(wid)*31))
			for !firstErr.Failed() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				b, ioWait, err := smp.SampleBatch(sbStart+i, plan.Batches[sbStart+i])
				d := time.Since(t0)
				col.AddSample(d)
				s.rec.AddIOWait(ioWait)
				s.rec.AddCPU(d - ioWait)
				if err != nil {
					firstErr.Set(err)
					return
				}
				batches[i] = b
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr.Get(); err != nil {
		return nil, err
	}
	// Persist sampled node lists (timed writes, counted as sample-stage
	// time: the paper attributes this cost to longer sampling).
	if s.opts.ScratchLen > 0 {
		t0 := time.Now()
		off := s.opts.ScratchOff
		for _, b := range batches {
			nb := int64(len(b.Nodes)) * 8
			if off+nb > s.opts.ScratchOff+s.opts.ScratchLen {
				off = s.opts.ScratchOff // scratch is a ring; wrap
			}
			waited, err := s.ds.Dev.WriteSync(make([]byte, nb), off)
			s.rec.AddIOWait(waited)
			if err != nil {
				return nil, fmt.Errorf("ginex: persist sampling results: %w", err)
			}
			off += nb
		}
		col.AddSample(time.Since(t0))
	}
	return batches, nil
}

// inspect reads the persisted lists back and computes per-node occurrence
// chains for Belady replacement.
func (s *System) inspect(batches []*sample.Batch, col *metrics.BreakdownCollector) (*schedule, error) {
	t0 := time.Now()
	// Read the lists back (same volume as written).
	if s.opts.ScratchLen > 0 {
		off := s.opts.ScratchOff
		for _, b := range batches {
			nb := int64(len(b.Nodes)) * 8
			if off+nb > s.opts.ScratchOff+s.opts.ScratchLen {
				off = s.opts.ScratchOff
			}
			waited, err := s.ds.Dev.ReadAt(storage.AlignedBuf(int(nb), s.ds.Dev.SectorSize()), off)
			s.rec.AddIOWait(waited)
			if err != nil {
				return nil, fmt.Errorf("ginex: inspect read: %w", err)
			}
			off += nb
		}
	}
	sched := newSchedule(batches)
	d := time.Since(t0)
	col.AddSample(d) // the paper books inspect into the longer sampling
	s.rec.AddCPU(d)
	return sched, nil
}

// initCache synchronously preloads the cache with the superbatch's
// earliest-used nodes up to capacity (Fig. 3(b)'s I/O burst at each
// superbatch start).
func (s *System) initCache(sched *schedule, col *metrics.BreakdownCollector) error {
	t0 := time.Now()
	want := sched.firstUseOrder(s.fcache.capacity)
	toLoad := make([]int64, 0, len(want))
	for _, v := range want {
		if !s.fcache.contains(v) {
			toLoad = append(toLoad, v)
		}
	}
	if len(toLoad) > 0 {
		// after = -1: these loads happen before the superbatch's first
		// mini-batch, so keys are the nodes' first uses.
		reads, err := s.loadNodes(toLoad, sched, -1)
		if err != nil {
			return err
		}
		col.Add(metrics.Counters{BackendReads: reads, BytesNeeded: int64(len(toLoad)) * s.ds.FeatBytes()})
	}
	col.AddExtract(time.Since(t0))
	return nil
}

// extractBatch serves one mini-batch from the feature cache, loading
// misses synchronously and evicting per the Belady schedule.
func (s *System) extractBatch(b *sample.Batch, sched *schedule, globalIdx int,
	col *metrics.BreakdownCollector) (hits, misses int64, err error) {
	t0 := time.Now()
	var toLoad []int64
	for _, v := range b.Nodes {
		if s.fcache.contains(v) {
			hits++
			s.fcache.touch(v, sched, globalIdx)
		} else {
			misses++
			toLoad = append(toLoad, v)
		}
	}
	var reads int64
	if len(toLoad) > 0 {
		if reads, err = s.loadNodes(toLoad, sched, globalIdx); err != nil {
			return hits, misses, err
		}
	}
	col.AddExtract(time.Since(t0))
	featBytes := s.ds.FeatBytes()
	col.Add(metrics.Counters{NodesExtracted: misses, BytesRead: misses * featBytes,
		BytesNeeded: misses * featBytes, BytesReused: hits * featBytes, BackendReads: reads})
	return hits, misses, nil
}

// loadNodes reads feature vectors from SSD with synchronous, batched,
// sector-aligned reads and inserts them into the feature cache,
// returning the number of backend reads issued. The plan goes through
// the dataset's addresser, so Ginex benefits from a packed layout too.
func (s *System) loadNodes(nodes []int64, sched *schedule, afterBatch int) (int64, error) {
	positions := make([]int32, len(nodes))
	for i := range positions {
		positions[i] = int32(i)
	}
	var ap core.AddrPlanner
	plan, err := ap.PlanInto(nil, s.ds.Addresser(), s.ds.Dev.SectorSize(), 64<<10, nodes, positions)
	if err != nil {
		return 0, fmt.Errorf("ginex: feature plan: %w", err)
	}
	featBytes := int(s.ds.FeatBytes())
	buf := storage.AlignedBuf(64<<10+featBytes, s.ds.Dev.SectorSize())
	for _, op := range plan {
		waited, err := s.ds.Dev.ReadDirect(buf[:op.Len], op.DevOff)
		s.rec.AddIOWait(waited)
		if err != nil {
			return 0, fmt.Errorf("ginex: feature load: %w", err)
		}
		for _, rn := range op.Nodes {
			v := nodes[rn.Pos]
			s.fcache.insert(v, sched, afterBatch, buf[rn.BufOff:rn.BufOff+featBytes])
		}
	}
	return int64(len(plan)), nil
}

// trainBatch transfers the batch synchronously and trains.
func (s *System) trainBatch(b *sample.Batch, col *metrics.BreakdownCollector) (float64, float64, error) {
	featBytes := s.ds.FeatBytes()
	xferBytes := int64(len(b.Nodes)) * featBytes
	// Per-batch gather tensor (host) and device tensor, like PyG+.
	if err := s.budget.Pin("ginex gather tensor", xferBytes); err != nil {
		return 0, 0, fmt.Errorf("ginex: gather: %w", err)
	}
	defer s.budget.Unpin(xferBytes)
	if err := s.dev.Alloc("ginex batch features", xferBytes); err != nil {
		return 0, 0, fmt.Errorf("ginex: transfer: %w", err)
	}
	defer s.dev.Free(xferBytes)

	t0 := time.Now()
	s.dev.CopySync(xferBytes)
	col.AddExtract(time.Since(t0))

	t1 := time.Now()
	var loss, acc float64
	if s.opts.RealTrain {
		x := tensor.New(len(b.Nodes), s.ds.Dim)
		for i, v := range b.Nodes {
			row := s.fcache.get(v)
			if row == nil {
				// Evicted between extract and train within the same
				// batch cannot happen (schedule protects current batch);
				// fall back to a raw read for robustness.
				s.ds.ReadFeatureRaw(v, x.Row(i)[:0])
			} else {
				copy(x.Row(i), row)
			}
		}
		labels := make([]int32, b.NumTargets)
		for i := 0; i < b.NumTargets; i++ {
			labels[i] = s.ds.Labels[b.Nodes[i]]
		}
		l, a := s.model.Loss(b, x, labels)
		s.optim.Step(s.model.Params())
		loss, acc = float64(l), a
		s.dev.AddComputeBusy(time.Since(t1))
	} else {
		s.dev.Compute(device.Work{
			Model: s.opts.Model, Nodes: int64(len(b.Nodes)), Edges: b.NumEdges(),
			InDim: s.ds.Dim, Hidden: s.opts.Hidden, Classes: s.ds.NumClasses,
			Layers: s.opts.Layers, Backward: true,
		})
	}
	col.AddTrain(time.Since(t1))
	return loss, acc, nil
}

// SampleOnly runs only the sampling phase over the whole epoch (Fig. 2),
// including result persistence, and returns the summed sampling time.
func (s *System) SampleOnly(epoch int) (time.Duration, error) {
	var col metrics.BreakdownCollector
	plan := s.plan(epoch)
	start := time.Now()
	for sbStart := 0; sbStart < len(plan.Batches); sbStart += s.opts.Superbatch {
		sbEnd := sbStart + s.opts.Superbatch
		if sbEnd > len(plan.Batches) {
			sbEnd = len(plan.Batches)
		}
		if _, err := s.sampleSuperbatch(epoch, plan, sbStart, sbEnd, &col); err != nil {
			return 0, err
		}
	}
	_ = start
	b := col.Snapshot(0)
	return b.Sample, nil
}

// ---- neighbor cache ----

// neighborCache pins the adjacency lists of the highest-degree nodes; the
// sampler reads cached lists from memory and the rest from SSD through
// untracked direct reads (Ginex bypasses the page cache).
type neighborCache struct {
	ds    *graph.Dataset
	lists map[int64][]int32
	bytes int64
}

func newNeighborCache(ds *graph.Dataset, budget *hostmem.Budget, capacity int64) (*neighborCache, error) {
	if err := budget.Pin("ginex neighbor cache", capacity); err != nil {
		return nil, err
	}
	nc := &neighborCache{ds: ds, lists: make(map[int64][]int32), bytes: capacity}
	// Highest-degree nodes first.
	order := make([]int64, ds.NumNodes)
	for i := range order {
		order[i] = int64(i)
	}
	sort.Slice(order, func(a, b int) bool { return ds.Degree(order[a]) > ds.Degree(order[b]) })
	reader := graph.NewRawReader(ds)
	var used int64
	for _, v := range order {
		need := ds.Degree(v)*4 + 16
		if used+need > capacity {
			break
		}
		ns, _, err := reader.Neighbors(v, nil)
		if err != nil {
			budget.Unpin(capacity)
			return nil, err
		}
		nc.lists[v] = append([]int32(nil), ns...)
		used += need
	}
	return nc, nil
}

// reader returns a per-goroutine NeighborReader over the cache.
func (nc *neighborCache) reader() graph.NeighborReader {
	return &ncReader{nc: nc, raw: make([]byte, 0, 4096)}
}

type ncReader struct {
	nc  *neighborCache
	raw []byte
}

// Neighbors serves cached lists from memory; misses read the index
// array from SSD synchronously (512-aligned direct read).
func (r *ncReader) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	if ns, ok := r.nc.lists[v]; ok {
		return append(buf[:0], ns...), 0, nil
	}
	ds := r.nc.ds
	lo, hi := ds.Indptr[v], ds.Indptr[v+1]
	if lo == hi {
		return buf[:0], 0, nil
	}
	start := ds.Layout.IndicesOff + lo*4
	end := ds.Layout.IndicesOff + hi*4
	aStart := start / 512 * 512
	aEnd := (end + 511) / 512 * 512
	if cap(r.raw) < int(aEnd-aStart) {
		r.raw = storage.AlignedBuf(int(aEnd-aStart), 512)
	}
	raw := r.raw[:aEnd-aStart]
	waited, err := ds.Dev.ReadDirect(raw, aStart)
	if err != nil {
		return nil, waited, err
	}
	out := buf[:0]
	for i := start - aStart; i < end-aStart; i += 4 {
		out = append(out, int32(uint32(raw[i])|uint32(raw[i+1])<<8|uint32(raw[i+2])<<16|uint32(raw[i+3])<<24))
	}
	return out, waited, nil
}

// ---- feature cache with Belady replacement ----

// schedule holds the superbatch's access chains: for every node, the
// ordered mini-batch indexes where it appears.
type schedule struct {
	occ     map[int64][]int32
	ordered []int64 // nodes by first use
}

func newSchedule(batches []*sample.Batch) *schedule {
	s := &schedule{occ: make(map[int64][]int32)}
	for bi, b := range batches {
		for _, v := range b.Nodes {
			if _, seen := s.occ[v]; !seen {
				s.ordered = append(s.ordered, v)
			}
			s.occ[v] = append(s.occ[v], int32(bi))
		}
	}
	return s
}

// firstUseOrder returns up to n nodes in order of first use.
func (s *schedule) firstUseOrder(n int) []int64 {
	if n > len(s.ordered) {
		n = len(s.ordered)
	}
	return s.ordered[:n]
}

// nextUse returns the next batch index >= after where v is used, or a
// large sentinel when never used again.
func (s *schedule) nextUse(v int64, after int) int32 {
	const never = 1 << 30
	occ := s.occ[v]
	i := sort.Search(len(occ), func(i int) bool { return occ[i] >= int32(after) })
	if i == len(occ) {
		return never
	}
	return occ[i]
}

// featureCache is a fixed-capacity node->feature cache evicting the entry
// with the farthest next use (Belady, computable thanks to the inspect
// pass).
type featureCache struct {
	ds       *graph.Dataset
	capacity int
	bytes    int64
	slots    map[int64]int32
	data     []float32 // capacity x dim when real features are kept
	free     []int32
	dim      int
	h        nextUseHeap
}

func newFeatureCache(ds *graph.Dataset, budget *hostmem.Budget, capBytes int64, keepData bool) (*featureCache, error) {
	if err := budget.Pin("ginex feature cache", capBytes); err != nil {
		return nil, err
	}
	capacity := int(capBytes / ds.FeatBytes())
	if capacity < 1 {
		capacity = 1
	}
	fc := &featureCache{
		ds: ds, capacity: capacity, bytes: capBytes,
		slots: make(map[int64]int32, capacity), dim: ds.Dim,
	}
	if keepData {
		fc.data = make([]float32, capacity*ds.Dim)
	}
	fc.free = make([]int32, capacity)
	for i := range fc.free {
		fc.free[i] = int32(i)
	}
	return fc, nil
}

func (fc *featureCache) contains(v int64) bool {
	_, ok := fc.slots[v]
	return ok
}

// get returns the cached feature row (real mode), or nil.
func (fc *featureCache) get(v int64) []float32 {
	slot, ok := fc.slots[v]
	if !ok || fc.data == nil {
		return nil
	}
	return fc.data[int(slot)*fc.dim : (int(slot)+1)*fc.dim]
}

// insert adds a node accessed at mini-batch `after`, evicting the
// farthest-next-use entry when full. Its heap key is the node's next use
// strictly after the current batch; combined with touch-on-hit this keeps
// every live node's freshest heap entry equal to its true next use, so
// the lazy max-heap implements exact Belady replacement.
func (fc *featureCache) insert(v int64, sched *schedule, after int, raw []byte) {
	if _, ok := fc.slots[v]; ok {
		return
	}
	var slot int32
	if len(fc.free) > 0 {
		slot = fc.free[len(fc.free)-1]
		fc.free = fc.free[:len(fc.free)-1]
	} else {
		victim := fc.evictFarthest(sched, after)
		slot = fc.slots[victim]
		delete(fc.slots, victim)
	}
	fc.slots[v] = slot
	if fc.data != nil {
		graph.DecodeFeature(raw, fc.data[int(slot)*fc.dim : int(slot)*fc.dim][:0])
	}
	heap.Push(&fc.h, nextUseEntry{node: v, next: sched.nextUse(v, after+1)})
}

// touch re-keys a cached node on a hit at mini-batch `after`, consuming
// the current occurrence.
func (fc *featureCache) touch(v int64, sched *schedule, after int) {
	if _, ok := fc.slots[v]; !ok {
		return
	}
	heap.Push(&fc.h, nextUseEntry{node: v, next: sched.nextUse(v, after+1)})
}

// reschedule resets the heap for a new superbatch's schedule: every
// resident node is re-keyed against the fresh access chains.
func (fc *featureCache) reschedule(sched *schedule) {
	fc.h = fc.h[:0]
	for v := range fc.slots {
		heap.Push(&fc.h, nextUseEntry{node: v, next: sched.nextUse(v, 0)})
	}
}

// evictFarthest pops heap entries until it finds a live, fresh one.
// Stale entries (older keys of a node that was touched since) are
// discarded: the fresher duplicate has a larger key, so it pops first.
func (fc *featureCache) evictFarthest(sched *schedule, after int) int64 {
	for fc.h.Len() > 0 {
		e := heap.Pop(&fc.h).(nextUseEntry)
		if _, live := fc.slots[e.node]; !live {
			continue
		}
		if cur := sched.nextUse(e.node, after+1); cur != e.next {
			continue // stale duplicate
		}
		return e.node
	}
	// Heap exhausted (can only happen without touch discipline): evict
	// any entry.
	for v := range fc.slots {
		return v
	}
	panic("ginex: evict from empty cache")
}

type nextUseEntry struct {
	node int64
	next int32
}

// nextUseHeap is a max-heap on next use (farthest first).
type nextUseHeap []nextUseEntry

func (h nextUseHeap) Len() int            { return len(h) }
func (h nextUseHeap) Less(i, j int) bool  { return h[i].next > h[j].next }
func (h nextUseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nextUseHeap) Push(x interface{}) { *h = append(*h, x.(nextUseEntry)) }
func (h *nextUseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
