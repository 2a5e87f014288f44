// Package pygplus re-implements the PyG+ baseline (Park et al., and §2 of
// the GNNDrive paper): disk-based training that memory-maps both the
// topology and the feature table and otherwise keeps PyG's synchronous
// sample-extract-train loop.
//
// The properties the paper measures all follow from that design and are
// reproduced here:
//
//   - both mmapped files fault through the one shared OS page cache, so
//     extract-stage feature pages evict sample-stage topology pages
//     (memory contention, O1);
//   - feature gathering is synchronous 4 KiB page faults with the modest
//     effective concurrency of a Python DataLoader (I/O congestion, O2),
//     and sampling prefetch runs concurrently with it, worsening O1;
//   - the gather buffer and the per-batch device tensor are allocated per
//     mini-batch, which is where large batches OOM (Fig. 10).
package pygplus

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// Options configures the PyG+ baseline.
type Options struct {
	Model  nn.ModelKind
	Hidden int
	Layers int

	BatchSize int
	Fanouts   []int

	// SampleWorkers is the DataLoader worker count prefetching sampled
	// batches concurrently with extraction.
	SampleWorkers int
	// ExtractThreads is the effective parallelism of the feature gather.
	// The paper configures >2x physical cores for I/O-heavy stages, but
	// mmap faults behind the interpreter lock keep effective depth low;
	// this is the effective value.
	ExtractThreads int
	// PerNodeGatherCPU models the Python-side per-node tensor gather
	// cost (before time scaling).
	PerNodeGatherCPU time.Duration
	// TimeScale multiplies modeled CPU overheads.
	TimeScale float64

	Shuffle   bool
	RealTrain bool
	LR        float32
	Seed      uint64
}

// DefaultOptions mirrors the paper's PyG+ configuration at our scale.
func DefaultOptions(model nn.ModelKind) Options {
	// Batch/fanout scaling matches core.DefaultOptions (see the comment
	// there): the paper's 1,000/(10,10,10) at 1:1000 graph scale.
	fan := []int{3, 3, 3}
	if model == nn.GAT {
		fan = []int{3, 3, 2}
	}
	return Options{
		Model: model, Hidden: 256, Layers: 3,
		BatchSize: 50, Fanouts: fan,
		SampleWorkers: 2, ExtractThreads: 4,
		PerNodeGatherCPU: 2 * time.Microsecond,
		TimeScale:        1,
		Shuffle:          true, LR: 0.003, Seed: 1,
	}
}

// System is a PyG+ training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
	opts   Options

	idxFile  *pagecache.File
	featFile *pagecache.File

	model  *nn.Model
	optim  *nn.Adam
	pinned int64
	closed bool
}

// New memory-maps the dataset through the shared page cache. Only indptr
// and labels are pinned (they are converted to in-memory tensors).
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	cache *pagecache.Cache, rec *metrics.Recorder, opts Options) (*System, error) {
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
	if opts.SampleWorkers == 0 {
		opts.SampleWorkers = d.SampleWorkers
	}
	if opts.ExtractThreads == 0 {
		opts.ExtractThreads = d.ExtractThreads
	}
	if opts.PerNodeGatherCPU == 0 {
		opts.PerNodeGatherCPU = d.PerNodeGatherCPU
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = d.TimeScale
	}
	if opts.LR == 0 {
		opts.LR = d.LR
	}
	if opts.Seed == 0 {
		opts.Seed = d.Seed
	}
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, cache: cache, rec: rec, opts: opts}
	pins := ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := budget.Pin("pyg+ indptr+labels", pins); err != nil {
		return nil, err
	}
	s.pinned = pins
	s.idxFile = graph.IndicesFile(ds, cache)
	s.featFile = cache.NewFile(ds.Layout.FeaturesOff, ds.Layout.FeaturesLen)
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

// Close releases the host pins.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.budget.Unpin(s.pinned)
}

// Result reports one epoch.
type Result struct {
	metrics.Breakdown
	Loss float64
	Acc  float64
}

// TrainEpoch runs one epoch of the synchronous SET loop with DataLoader
// prefetch: SampleWorkers sample ahead while the main loop extracts
// (sync, page-cached), transfers (sync), and trains each batch in order.
// ctx rides every page fault of the samplers and the gather, so a
// cancelled epoch fails at its next fault.
func (s *System) TrainEpoch(ctx context.Context, epoch int) (Result, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	plan := s.plan(epoch)

	batches := make(chan *sample.Batch, 2*s.opts.SampleWorkers)
	var sampErr errutil.FirstError
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < s.opts.SampleWorkers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			reader := graph.NewCachedReader(s.ds, s.cache, s.idxFile)
			reader.SetContext(ctx)
			smp := sample.New(reader, s.opts.Fanouts,
				tensor.NewRNG(s.opts.Seed+uint64(epoch)*1000+uint64(wid)*31))
			for !sampErr.Failed() {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Batches) {
					return
				}
				t0 := time.Now()
				b, ioWait, err := smp.SampleBatch(i, plan.Batches[i])
				d := time.Since(t0)
				col.AddSample(d)
				s.rec.AddIOWait(ioWait)
				s.rec.AddCPU(d - ioWait)
				if err != nil {
					sampErr.Set(err)
					return
				}
				batches <- b
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(batches)
	}()

	var lossSum, accSum float64
	var firstErr error
	for b := range batches {
		if firstErr != nil {
			continue // drain
		}
		loss, acc, err := s.runBatch(ctx, b, &col)
		if err != nil {
			firstErr = err
			sampErr.Set(err)
			continue
		}
		lossSum += loss
		accSum += acc
		col.Add(metrics.Counters{Batches: 1})
	}
	if firstErr == nil {
		firstErr = sampErr.Get()
	}
	res := Result{Breakdown: col.Snapshot(time.Since(start))}
	if res.Batches > 0 && s.opts.RealTrain {
		res.Loss = lossSum / float64(res.Batches)
		res.Acc = accSum / float64(res.Batches)
	}
	return res, firstErr
}

// runBatch extracts, transfers, and trains one mini-batch synchronously.
func (s *System) runBatch(ctx context.Context, b *sample.Batch, col *metrics.BreakdownCollector) (float64, float64, error) {
	featBytes := s.ds.FeatBytes()
	gatherBytes := int64(len(b.Nodes)) * featBytes

	// The gather tensor is a transient host allocation (torch.empty on
	// the host side); big batches on big dims OOM here.
	if err := s.budget.Pin("pyg+ gather tensor", gatherBytes); err != nil {
		return 0, 0, fmt.Errorf("pyg+: extract: %w", err)
	}
	defer s.budget.Unpin(gatherBytes)

	t0 := time.Now()
	var x *tensor.Matrix
	if s.opts.RealTrain {
		x = tensor.New(len(b.Nodes), s.ds.Dim)
	}
	if err := s.gather(ctx, b, x); err != nil {
		return 0, 0, err
	}
	// Python-side gather overhead.
	if oh := time.Duration(float64(s.opts.PerNodeGatherCPU) * float64(len(b.Nodes)) * s.opts.TimeScale); oh > 0 {
		time.Sleep(oh)
		s.rec.AddCPU(oh)
	}
	col.AddExtract(time.Since(t0))
	col.Add(metrics.Counters{NodesExtracted: int64(len(b.Nodes)), BytesRead: gatherBytes})

	// Synchronous transfer into a per-batch device tensor.
	if err := s.dev.Alloc("pyg+ batch features", gatherBytes); err != nil {
		return 0, 0, fmt.Errorf("pyg+: transfer: %w", err)
	}
	defer s.dev.Free(gatherBytes)
	t1 := time.Now()
	s.dev.CopySync(gatherBytes)
	col.AddExtract(time.Since(t1))

	// Train.
	t2 := time.Now()
	var loss float64
	var acc float64
	if s.opts.RealTrain {
		labels := make([]int32, b.NumTargets)
		for i := 0; i < b.NumTargets; i++ {
			labels[i] = s.ds.Labels[b.Nodes[i]]
		}
		l, a := s.model.Loss(b, x, labels)
		s.optim.Step(s.model.Params())
		loss, acc = float64(l), a
		d := time.Since(t2)
		s.dev.AddComputeBusy(d)
	} else {
		s.dev.Compute(device.Work{
			Model: s.opts.Model, Nodes: int64(len(b.Nodes)), Edges: b.NumEdges(),
			InDim: s.ds.Dim, Hidden: s.opts.Hidden, Classes: s.ds.NumClasses,
			Layers: s.opts.Layers, Backward: true,
		})
	}
	col.AddTrain(time.Since(t2))
	return loss, acc, nil
}

// gather reads every node's feature vector through the page cache with
// ExtractThreads-way parallelism, counting fault time as I/O wait.
func (s *System) gather(ctx context.Context, b *sample.Batch, x *tensor.Matrix) error {
	threads := s.opts.ExtractThreads
	if threads > len(b.Nodes) {
		threads = len(b.Nodes)
	}
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	var firstErr errutil.FirstError
	chunk := (len(b.Nodes) + threads - 1) / threads
	featBytes := int(s.ds.FeatBytes())
	addr := s.ds.Addresser()
	base := s.ds.Layout.FeaturesOff
	for lo := 0; lo < len(b.Nodes); lo += chunk {
		hi := lo + chunk
		if hi > len(b.Nodes) {
			hi = len(b.Nodes)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := make([]byte, featBytes)
			var exts [2]layout.Extent
			for i := lo; i < hi; i++ {
				// The addresser yields device extents; featFile is keyed
				// relative to the feature region's base.
				for _, e := range addr.Extents(b.Nodes[i], exts[:0]) {
					if e.FeatOff < 0 || e.Len < 0 || e.FeatOff+e.Len > len(buf) {
						firstErr.Set(fmt.Errorf("pygplus: extent for node %d overruns the %d-byte feature record", b.Nodes[i], len(buf)))
						return
					}
					waited, err := s.featFile.ReadCtx(ctx, e.Off-base, buf[e.FeatOff:e.FeatOff+e.Len])
					s.rec.AddIOWait(waited)
					if err != nil {
						firstErr.Set(err)
						return
					}
				}
				if x != nil {
					graph.DecodeFeature(buf, x.Row(i)[:0])
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return firstErr.Get()
}

// SampleOnly runs only the sample stage for one epoch (Fig. 2) and
// returns the summed sampling time.
func (s *System) SampleOnly(epoch int) (time.Duration, error) {
	plan := s.plan(epoch)
	var total atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr errutil.FirstError
	for w := 0; w < s.opts.SampleWorkers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			reader := graph.NewCachedReader(s.ds, s.cache, s.idxFile)
			smp := sample.New(reader, s.opts.Fanouts,
				tensor.NewRNG(s.opts.Seed+uint64(epoch)*1000+uint64(wid)*31))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Batches) {
					return
				}
				t0 := time.Now()
				_, ioWait, err := smp.SampleBatch(i, plan.Batches[i])
				if err != nil {
					firstErr.Set(err)
					return
				}
				total.Add(int64(time.Since(t0)))
				s.rec.AddIOWait(ioWait)
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr.Get(); err != nil {
		return 0, err
	}
	return time.Duration(total.Load()), nil
}

func (s *System) plan(epoch int) *sample.Plan {
	var rng *tensor.RNG
	if s.opts.Shuffle {
		rng = tensor.NewRNG(s.opts.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	}
	return sample.NewPlan(s.ds.TrainIdx, s.opts.BatchSize, rng)
}
