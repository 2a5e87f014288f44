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
	"context"
	"fmt"
	"sort"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
)

// Options configures the Ginex baseline: the knobs every system shares,
// plus where it persists its sampling results. The caches are sized from
// the host budget (DefaultCacheSizes).
type Options struct {
	core.Knobs

	// ScratchOff/ScratchLen locate the device region where sampled node
	// lists are persisted between the sample and inspect phases. Zero
	// length skips persistence (tests), losing its I/O cost.
	ScratchOff, ScratchLen int64
}

const (
	// superbatch is the number of mini-batches sampled/inspected as one
	// unit (paper default 1,500; 150 at our scale keeps the paper's
	// one-superbatch-per-epoch shape).
	superbatch = 150
	// sampleWorkers parallelizes the superbatch sampling phase.
	sampleWorkers = 2
)

// DefaultCacheSizes returns the paper's cache split for a host budget:
// the two caches occupy 85% of host memory (6:24 ratio, the paper's 6 GB
// neighbour and 24 GB feature caches on a 32 GB host).
func DefaultCacheSizes(budget int64) (neighbor, feature int64) {
	total := budget * 85 / 100
	neighbor = total * 6 / 30
	feature = total * 24 / 30
	return neighbor, feature
}

// System is a Ginex training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	rec    *metrics.Recorder
	opts   Options

	ncache *graph.StaticNeighborCache
	fcache *featureCache

	learn  *core.Learner
	pinned int64
	closed bool
}

// New builds the caches. Fails with hostmem.ErrOOM when the configured
// caches plus metadata exceed the budget (the paper's 8 GB OOMs).
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	rec *metrics.Recorder, opts Options) (*System, error) {
	opts.Knobs = opts.Knobs.WithDefaults()
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, rec: rec, opts: opts}

	pins := ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := budget.Pin("ginex indptr+labels", pins); err != nil {
		return nil, err
	}
	s.pinned = pins

	neighborBytes, featureBytes := DefaultCacheSizes(budget.Capacity())
	nc, err := graph.NewStaticNeighborCache(ds, budget, neighborBytes)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ncache = nc
	fc, err := newFeatureCache(ds, budget, featureBytes, opts.RealTrain)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.fcache = fc

	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })
	s.learn = core.NewLearner(ds, dev, opts.Knobs)
	return s, nil
}

// Model returns the real-training model (nil in modeled mode).
func (s *System) Model() *nn.Model { return s.learn.Model() }

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
		s.ncache.Close()
		s.ncache = nil
	}
	s.budget.Unpin(s.pinned)
}

// TrainEpoch runs one epoch in superbatch phases. Cancelling ctx stops
// the samplers between batches, interrupts the feature reads, and stops
// the training loop between mini-batches. Feature-cache hits count as
// BytesReused (FeatBytes each), misses as NodesExtracted.
func (s *System) TrainEpoch(ctx context.Context, epoch int) (core.EpochResult, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	end := func(err error) (core.EpochResult, error) {
		return s.learn.EndEpoch(col.Snapshot(time.Since(start))), err
	}
	plan := s.opts.Plan(s.ds.TrainIdx, epoch)
	for sbStart := 0; sbStart < len(plan.Batches); sbStart += superbatch {
		sbEnd := min(sbStart+superbatch, len(plan.Batches))
		// Phase 1: sample the whole superbatch up front, persisting the
		// node lists.
		batches, err := s.sampleSuperbatch(ctx, epoch, plan, sbStart, sbEnd, &col)
		if err != nil {
			return end(err)
		}
		// Phase 2: inspect — read the lists back and build the optimal
		// replacement schedule.
		sched, err := s.inspect(ctx, batches, &col)
		if err != nil {
			return end(err)
		}
		// Phase 3: synchronous feature-cache initialization, after
		// re-keying the survivors of the previous superbatch.
		s.fcache.reschedule(sched)
		if err := s.initCache(ctx, sched, &col); err != nil {
			return end(err)
		}
		// Phase 4: extract / transfer / train per mini-batch.
		for bi, b := range batches {
			if err := ctx.Err(); err != nil {
				return end(err)
			}
			if err := s.extractBatch(ctx, b, sched, sbStart+bi, &col); err != nil {
				return end(err)
			}
			if err := s.trainBatch(b, &col); err != nil {
				return end(err)
			}
			col.Add(metrics.Counters{Batches: 1})
		}
	}
	return end(nil)
}

// sampleSuperbatch samples batches [sbStart, sbEnd) in parallel through
// the neighbor cache, then persists each node list to the scratch region.
func (s *System) sampleSuperbatch(ctx context.Context, epoch int, plan *sample.Plan, sbStart, sbEnd int,
	col *metrics.BreakdownCollector) ([]*sample.Batch, error) {
	batches := make([]*sample.Batch, sbEnd-sbStart)
	pool := sample.Pool{Workers: sampleWorkers, Fanouts: s.opts.Fanouts, Seed: s.opts.Seed,
		Reader: s.ncache.Reader}
	err := pool.Run(ctx, epoch, plan.Batches[:sbEnd], sbStart, func(b *sample.Batch, c sample.Cost) error {
		col.AddSample(c.Took)
		s.rec.AddIOWait(c.IOWait)
		s.rec.AddCPU(c.Took - c.IOWait)
		batches[b.ID-sbStart] = b
		return nil
	})
	if err != nil {
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
func (s *System) inspect(ctx context.Context, batches []*sample.Batch, col *metrics.BreakdownCollector) (*schedule, error) {
	t0 := time.Now()
	// Read the lists back (same volume as written).
	if s.opts.ScratchLen > 0 {
		off := s.opts.ScratchOff
		for _, b := range batches {
			nb := int64(len(b.Nodes)) * 8
			if off+nb > s.opts.ScratchOff+s.opts.ScratchLen {
				off = s.opts.ScratchOff
			}
			waited, err := s.ds.Dev.ReadAtCtx(ctx, storage.AlignedBuf(int(nb), s.ds.Dev.SectorSize()), off)
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
func (s *System) initCache(ctx context.Context, sched *schedule, col *metrics.BreakdownCollector) error {
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
		reads, read, err := s.loadNodes(ctx, toLoad, sched, -1)
		if err != nil {
			return err
		}
		col.Add(metrics.Counters{BackendReads: reads, BytesRead: read,
			BytesNeeded: int64(len(toLoad)) * s.ds.FeatBytes()})
	}
	col.AddExtract(time.Since(t0))
	return nil
}

// extractBatch serves one mini-batch from the feature cache, loading
// misses synchronously and evicting per the Belady schedule.
func (s *System) extractBatch(ctx context.Context, b *sample.Batch, sched *schedule, globalIdx int,
	col *metrics.BreakdownCollector) error {
	t0 := time.Now()
	var hits int64
	var toLoad []int64
	for _, v := range b.Nodes {
		if s.fcache.contains(v) {
			hits++
			s.fcache.touch(v, sched, globalIdx)
		} else {
			toLoad = append(toLoad, v)
		}
	}
	var reads, read int64
	if len(toLoad) > 0 {
		var err error
		if reads, read, err = s.loadNodes(ctx, toLoad, sched, globalIdx); err != nil {
			return err
		}
	}
	col.AddExtract(time.Since(t0))
	featBytes, misses := s.ds.FeatBytes(), int64(len(toLoad))
	col.Add(metrics.Counters{NodesExtracted: misses, BytesRead: read,
		BytesNeeded: misses * featBytes, BytesReused: hits * featBytes, BackendReads: reads})
	return nil
}

// loadNodes reads feature vectors from SSD with synchronous, batched,
// sector-aligned reads and inserts them into the feature cache,
// returning the number of backend reads issued and the bytes they moved.
// The plan goes through the dataset's addresser, so Ginex benefits from a
// packed layout too.
func (s *System) loadNodes(ctx context.Context, nodes []int64, sched *schedule, afterBatch int) (reads, read int64, err error) {
	positions := make([]int32, len(nodes))
	for i := range positions {
		positions[i] = int32(i)
	}
	var ap core.AddrPlanner
	plan, _ := ap.PlanInto(nil, s.ds.Addresser(), s.ds.Dev.SectorSize(), 64<<10, nodes, positions)
	featBytes := int(s.ds.FeatBytes())
	buf := storage.AlignedBuf(64<<10+featBytes, s.ds.Dev.SectorSize())
	for _, op := range plan {
		waited, err := s.ds.Dev.ReadDirectCtx(ctx, buf[:op.Len], op.DevOff)
		s.rec.AddIOWait(waited)
		if err != nil {
			return 0, 0, fmt.Errorf("ginex: feature load: %w", err)
		}
		read += int64(op.Len)
		for _, rn := range op.Nodes {
			v := nodes[rn.Pos]
			s.fcache.insert(v, sched, afterBatch, buf[rn.BufOff:rn.BufOff+featBytes])
		}
	}
	return int64(len(plan)), read, nil
}

// trainBatch transfers the batch synchronously and trains.
func (s *System) trainBatch(b *sample.Batch, col *metrics.BreakdownCollector) error {
	featBytes := s.ds.FeatBytes()
	xferBytes := int64(len(b.Nodes)) * featBytes
	// Per-batch gather tensor (host) and device tensor, like PyG+.
	if err := s.budget.Pin("ginex gather tensor", xferBytes); err != nil {
		return fmt.Errorf("ginex: gather: %w", err)
	}
	defer s.budget.Unpin(xferBytes)
	if err := s.dev.Alloc("ginex batch features", xferBytes); err != nil {
		return fmt.Errorf("ginex: transfer: %w", err)
	}
	defer s.dev.Free(xferBytes)

	t0 := time.Now()
	s.dev.CopySync(xferBytes)
	col.AddExtract(time.Since(t0))

	t1 := time.Now()
	x := s.learn.Input(b)
	if x != nil {
		for i, v := range b.Nodes {
			if row := s.fcache.get(v); row != nil {
				copy(x.Row(i), row)
			} else {
				// Evicted between extract and train within the same
				// batch cannot happen (schedule protects current batch);
				// fall back to a raw read for robustness.
				if _, err := s.ds.ReadFeatureRaw(v, x.Row(i)[:0]); err != nil {
					return fmt.Errorf("ginex: fallback read: %w", err)
				}
			}
		}
	}
	s.learn.Step(b, x, nil)
	col.AddTrain(time.Since(t1))
	return nil
}

// SampleOnly runs only the sampling phase over the whole epoch (Fig. 2),
// including result persistence, and returns the summed sampling time.
// Cancelling ctx stops the samplers between batches.
func (s *System) SampleOnly(ctx context.Context, epoch int) (time.Duration, error) {
	var col metrics.BreakdownCollector
	plan := s.opts.Plan(s.ds.TrainIdx, epoch)
	for sbStart := 0; sbStart < len(plan.Batches); sbStart += superbatch {
		sbEnd := min(sbStart+superbatch, len(plan.Batches))
		if _, err := s.sampleSuperbatch(ctx, epoch, plan, sbStart, sbEnd, &col); err != nil {
			return 0, err
		}
	}
	return col.Snapshot(0).Sample, nil
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
