// Package pygplus re-implements the PyG+ baseline (Park et al., and §2 of
// the GNNDrive paper): disk-based training that memory-maps both the
// topology and the feature table and otherwise keeps PyG's synchronous
// sample-extract-train loop, fed by a DataLoader whose workers sample
// ahead and hand batches over in plan order.
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
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

const (
	// sampleWorkers is the DataLoader worker count prefetching sampled
	// batches concurrently with extraction.
	sampleWorkers = 2
	// perNodeGatherCPU models the Python-side per-node tensor gather cost,
	// before the device's time scale.
	perNodeGatherCPU = 2 * time.Microsecond
)

// System is a PyG+ training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
	knobs  core.Knobs

	idxFile  *pagecache.File
	featFile *pagecache.File

	learn  *core.Learner
	pinned int64
	closed bool
}

// New memory-maps the dataset through the shared page cache. Only indptr
// and labels are pinned (they are converted to in-memory tensors).
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	cache *pagecache.Cache, rec *metrics.Recorder, knobs core.Knobs) (*System, error) {
	knobs = knobs.WithDefaults()
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, cache: cache, rec: rec, knobs: knobs}
	pins := ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := budget.Pin("pyg+ indptr+labels", pins); err != nil {
		return nil, err
	}
	s.pinned = pins
	s.idxFile = graph.IndicesFile(ds, cache)
	s.featFile = cache.NewFile(ds.Layout.FeaturesOff, ds.Layout.FeaturesLen)
	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })
	s.learn = core.NewLearner(ds, dev, knobs)
	return s, nil
}

// Model returns the real-training model (nil in modeled mode).
func (s *System) Model() *nn.Model { return s.learn.Model() }

// Close releases the host pins.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.budget.Unpin(s.pinned)
}

// TrainEpoch runs one epoch of the synchronous SET loop with DataLoader
// prefetch: sampleWorkers sample ahead while the main loop extracts
// (sync, page-cached), transfers (sync), and trains each batch. As
// PyTorch's DataLoader does, the workers hand batches over in plan order
// (sample.Pool.RunInOrder): a worker that finishes early waits for its
// turn, so at most sampleWorkers batches are sampled ahead of the
// hand-off and the epoch trains the plan's batch sequence. ctx rides every
// page fault of the samplers and the gather, so a cancelled epoch fails
// at its next fault or mini-batch.
func (s *System) TrainEpoch(ctx context.Context, epoch int) (core.EpochResult, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	// A failed batch cancels sampleCtx, which stops the samplers.
	sampleCtx, stopSampling := context.WithCancel(ctx)
	defer stopSampling()
	batches := make(chan *sample.Batch, 2*sampleWorkers)
	var sampErr error
	go func() {
		sampErr = s.samplers().RunInOrder(sampleCtx, epoch, s.knobs.Plan(s.ds.TrainIdx, epoch).Batches, 0,
			func(b *sample.Batch, c sample.Cost) error {
				col.AddSample(c.Took)
				s.rec.AddIOWait(c.IOWait)
				s.rec.AddCPU(c.Took - c.IOWait)
				batches <- b // the loop below drains until close
				return nil
			})
		close(batches)
	}()

	var firstErr error
	for b := range batches {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			continue // drain
		}
		if err := s.runBatch(ctx, b, &col); err != nil {
			firstErr = err
			stopSampling()
			continue
		}
		col.Add(metrics.Counters{Batches: 1})
	}
	if firstErr == nil {
		firstErr = sampErr
	}
	return s.learn.EndEpoch(col.Snapshot(time.Since(start))), firstErr
}

// runBatch extracts, transfers, and trains one mini-batch synchronously.
func (s *System) runBatch(ctx context.Context, b *sample.Batch, col *metrics.BreakdownCollector) error {
	featBytes := s.ds.FeatBytes()
	gatherBytes := int64(len(b.Nodes)) * featBytes

	// The gather tensor is a transient host allocation (torch.empty on
	// the host side); big batches on big dims OOM here.
	if err := s.budget.Pin("pyg+ gather tensor", gatherBytes); err != nil {
		return fmt.Errorf("pyg+: extract: %w", err)
	}
	defer s.budget.Unpin(gatherBytes)

	t0 := time.Now()
	x := s.learn.Input(b)
	if err := s.gather(ctx, b, x); err != nil {
		return err
	}
	// Python-side gather overhead.
	if oh := time.Duration(float64(perNodeGatherCPU) * float64(len(b.Nodes)) * s.dev.TimeScale()); oh > 0 {
		time.Sleep(oh)
		s.rec.AddCPU(oh)
	}
	col.AddExtract(time.Since(t0))
	col.Add(metrics.Counters{NodesExtracted: int64(len(b.Nodes)), BytesRead: gatherBytes})

	// Synchronous transfer into a per-batch device tensor.
	if err := s.dev.Alloc("pyg+ batch features", gatherBytes); err != nil {
		return fmt.Errorf("pyg+: transfer: %w", err)
	}
	defer s.dev.Free(gatherBytes)
	t1 := time.Now()
	s.dev.CopySync(gatherBytes)
	col.AddExtract(time.Since(t1))

	t2 := time.Now()
	s.learn.Step(b, x, nil)
	col.AddTrain(time.Since(t2))
	return nil
}

// extractThreads is the effective parallelism of the feature gather. The
// paper configures >2x physical cores for I/O-heavy stages, but mmap
// faults behind the interpreter lock keep effective depth low; this is the
// effective value.
const extractThreads = 4

// gather reads every node's feature vector through the page cache with
// extractThreads-way parallelism, counting fault time as I/O wait.
func (s *System) gather(ctx context.Context, b *sample.Batch, x *tensor.Matrix) error {
	threads := max(min(extractThreads, len(b.Nodes)), 1)
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
			for i := lo; i < hi; i++ {
				// The addresser yields device offsets; featFile is keyed
				// relative to the feature region's base.
				waited, err := s.featFile.ReadCtx(ctx, addr.NodeOffset(b.Nodes[i])-base, buf)
				s.rec.AddIOWait(waited)
				if err != nil {
					firstErr.Set(err)
					return
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
// returns the summed sampling time. Cancelling ctx aborts the samplers'
// page faults and stops them between batches.
func (s *System) SampleOnly(ctx context.Context, epoch int) (time.Duration, error) {
	return s.samplers().SampleOnly(ctx, epoch, s.knobs.Plan(s.ds.TrainIdx, epoch).Batches, s.rec.AddIOWait)
}

// samplers is the DataLoader: sampleWorkers workers sampling through the
// page cache that the feature gather also faults into.
func (s *System) samplers() sample.Pool {
	return sample.Pool{Workers: sampleWorkers, Fanouts: s.knobs.Fanouts, Seed: s.knobs.Seed,
		Reader: func(ctx context.Context) graph.NeighborReader {
			r := graph.NewCachedReader(s.ds, s.cache, s.idxFile)
			r.SetContext(ctx)
			return r
		}}
}
