package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/device"
	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/tensor"
	"gnndrive/internal/trace"
)

const deviceGPUKind = device.GPU

// extractQueueCap bounds the sample → extract hand-off queue (paper
// default 6).
const extractQueueCap = 6

// retryBudget is the per-read retry budget for transient storage errors
// before the error escalates and aborts the epoch; retryBackoff is the
// base delay of its backoff (exponential with jitter, capped).
const (
	retryBudget  = 3
	retryBackoff = 100 * time.Microsecond
)

// Options configures a GNNDrive engine. Zero fields take defaults from
// DefaultOptions.
type Options struct {
	Knobs

	// Samplers and Extractors are the stage thread counts (paper default
	// 4 + 4, with one trainer and one releaser).
	Samplers   int
	Extractors int
	// TrainQueueCap bounds the extract → train hand-off queue (paper
	// default 4; limited by device memory). The sample → extract queue is
	// the constant extractQueueCap.
	TrainQueueCap int
	// RingDepth is the io_uring depth per extractor.
	RingDepth int
	// FeatureSlots overrides the feature-buffer capacity (0 = size it
	// by FeatureBufferX, else to as much of the device allowance as the
	// graph can use).
	FeatureSlots int
	// FeatureBufferX, when FeatureSlots is 0, sizes the feature buffer
	// at this multiple of the paper's minimum, Ne x Mb (Fig. 12), clamped
	// to a GPU's allowance and to the graph. Ne is the paper's four
	// extractors even InOrder, which runs one. 0 auto-sizes.
	FeatureBufferX float64
	// MaxJointRead caps a joint direct read's byte length (§4.4).
	MaxJointRead int

	// InOrder disables mini-batch reordering (ablation): one sampler,
	// one extractor, strictly ordered pipeline.
	InOrder bool
	// SyncExtraction replaces async I/O with blocking reads (ablation).
	SyncExtraction bool
	// BufferedIO uses exact-size buffered reads instead of aligned
	// direct reads (§4.4 fallback / ablation).
	BufferedIO bool
	// GPUDirect models GPUDirect Storage (§4.4, the paper's future
	// work): feature reads land in device memory without the host
	// staging buffer, but at a 4 KiB access granularity, so small
	// features pay redundant loading. Requires a GPU device.
	GPUDirect bool

	// SharedStaging, when non-nil, is a staging pool owned by a parent
	// (multi-device training shares one staging buffer across workers,
	// §4.3); the engine will not close it.
	SharedStaging *Staging

	// Tracer, when non-nil, records per-batch stage events for pipeline
	// overlap analysis (internal/trace).
	Tracer *trace.Tracer

	// CheckpointDir, when non-empty, enables crash-consistent run
	// checkpointing (RealTrain only): model parameters, Adam moments,
	// and the epoch/step cursor are committed atomically to this
	// directory at every epoch boundary, and — in InOrder mode — every
	// CheckpointEverySteps mini-batches. Resume with ResumeRunState.
	CheckpointDir string
	// CheckpointEverySteps is the mid-epoch checkpoint cadence in
	// trainer steps. Mid-epoch checkpoints require InOrder mode: with
	// stage parallelism, mini-batch reordering makes "the first N
	// steps" a nondeterministic set, so the cursor would lie. Outside
	// InOrder the engine silently saves only at epoch boundaries, where
	// the cursor is exact regardless of reordering. 0 disables
	// mid-epoch saves.
	CheckpointEverySteps int
	// StallDeadline arms the pipeline watchdog: if no stage makes
	// progress for this long the epoch is cancelled with
	// ErrPipelineStalled and a diagnostics snapshot is recorded on the
	// tracer. 0 disables the watchdog.
	StallDeadline time.Duration

	// IOGate, when non-nil, rations this engine's extract reads against
	// a shared submit path: every in-flight backend read holds one
	// permit. The serve daemon hands each job a fair-share view of one
	// token pool; nil leaves reads bounded only by ring depth and
	// staging slots.
	IOGate IOGate

	// The unexported options have no setter outside this package: Parallel
	// sets the two sharing ones for its workers and fault-injection tests
	// set ckptSink.

	// sharedFB, when non-nil, is a feature buffer owned by a parent.
	// CPU-based data parallelism shares one host-resident feature buffer
	// among all workers (§4.4); the engine will not account or release it.
	sharedFB *FeatureBuffer
	// skipHostPins suppresses the indptr/labels pin for workers sharing
	// topology metadata with a parent.
	skipHostPins bool
	// ckptSink overrides the checkpoint storage seam (fault-injection
	// tests); nil uses the real filesystem.
	ckptSink checkpoint.Sink
}

// paperExtractors is the paper's extractor count, Ne of the minimum
// feature buffer Ne x Mb that FeatureBufferX multiplies.
const paperExtractors = 4

// DefaultOptions returns the paper's empirical configuration (§5).
func DefaultOptions(model nn.ModelKind) Options {
	return Options{
		Knobs:         DefaultKnobs(model),
		Samplers:      4,
		Extractors:    paperExtractors,
		TrainQueueCap: 4,
		RingDepth:     64,
		MaxJointRead:  16 << 10,
	}
}

func (o *Options) fillDefaults() {
	o.Knobs = o.Knobs.WithDefaults()
	d := DefaultOptions(o.Model)
	if o.Samplers == 0 {
		o.Samplers = d.Samplers
	}
	if o.Extractors == 0 {
		o.Extractors = d.Extractors
	}
	if o.TrainQueueCap == 0 {
		o.TrainQueueCap = d.TrainQueueCap
	}
	if o.RingDepth == 0 {
		o.RingDepth = d.RingDepth
	}
	if o.MaxJointRead == 0 {
		o.MaxJointRead = d.MaxJointRead
	}
	if o.InOrder {
		// Reordering comes from stage parallelism; the ordered ablation
		// runs one worker per stage.
		o.Samplers, o.Extractors = 1, 1
	}
}

// StagingUnit is the unit of every staging pool an engine or the
// daemon builds: one sector, the alignment every planned direct read
// has, so each extent a read acquires is sector-aligned for O_DIRECT and
// io_uring.
const StagingUnit = 512

// ReadsInFlight is how many reads the engine's extractors can have in
// flight at once: one ring of RingDepth each.
func (o Options) ReadsInFlight() int {
	o.fillDefaults()
	return o.Extractors * o.RingDepth
}

// StagingUnits is the staging pool an engine with these options builds
// for itself, in StagingUnit units: every read in flight one vector
// window — the most sectors one vector spans at any byte offset a packed
// layout may give it — and never less than one joint read. A read of
// more sectors than a window simply takes more units while in flight.
func (o Options) StagingUnits(featBytes int) int {
	o.fillDefaults()
	window := (featBytes + 2*(StagingUnit-1)) / StagingUnit
	return max(o.ReadsInFlight()*window, (o.MaxJointRead+StagingUnit-1)/StagingUnit)
}

// AutoFeatureSlots is the feature buffer's pipeline working set for
// batches of up to batchNodes unique nodes: one batch per extractor, one
// per train-queue entry, and the one being trained. A buffer's slots
// beyond the working sets of the engines reserving from it hold its
// resident tier. A buffer may be smaller than this — a FeatureBufferX 1
// buffer is Ne x Mb, and an auto-sized one stops at the device
// allowance and the graph — since only §4.2's Ne x Mb is guaranteed.
func (o Options) AutoFeatureSlots(batchNodes int) int {
	o.fillDefaults()
	return (o.Extractors + o.TrainQueueCap + 1) * batchNodes
}

// EpochResult reports one training epoch of any system: GNNDrive and the
// three baselines fill the breakdown and Learner.EndEpoch the training
// outcome; the fields below StepLosses are the engine's own.
type EpochResult struct {
	metrics.Breakdown
	// Loss and Acc are averaged over mini-batches (real training only).
	Loss float64
	Acc  float64
	// StepLosses is the per-step loss sequence in trainer order (real
	// training only). A resumed run's tail matches the uninterrupted
	// run's bit for bit, and systems that train the same batches in the
	// same order match each other.
	StepLosses []float32
	// CheckpointErr is the first checkpoint-save failure of the epoch,
	// if any. Save failures never fail training: a torn commit leaves
	// only the previous checkpoint visible, so the run stays resumable
	// — just from an older cursor.
	CheckpointErr error
	// FB counts the feature buffer's activity over the epoch (over the
	// segment a resumed epoch trains). A buffer Parallel's CPU workers
	// share counts every worker's.
	FB FeatureBufferStats
}

// Engine is a GNNDrive training instance bound to one dataset and one
// training device.
type Engine struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
	opts   Options

	fb        *FeatureBuffer
	staging   *Staging
	indexFile *pagecache.File

	learn *Learner

	// batchPool recycles sampled batches through the pipeline: the sample
	// stage takes, the release stage returns. Steady-state epochs sample
	// into pre-grown node and edge arrays instead of allocating.
	batchPool sync.Pool
	// extractors outlive epochs, so their ring, plan scratch and transfer
	// records are grown once per run rather than once per epoch. The
	// extract goroutines of one epoch use one each.
	extractors []*extractor

	// ckptSaver commits run state to Options.CheckpointDir (nil when
	// checkpointing is disabled). At most one of its commits is in
	// flight, and none outlives the epoch that started it.
	ckptSaver *checkpoint.Saver
	// ckptState is the RunState every save reuses (runState).
	ckptState checkpoint.RunState
	// ckptReq holds a pending on-demand checkpoint request
	// (RequestCheckpoint); the trainer consumes it at the next step
	// boundary.
	ckptReq atomic.Pointer[ckptRequest]

	// testExtractHook, when non-nil, runs at the top of every extract
	// iteration. Test seam: the watchdog tests inject a stall here.
	testExtractHook func(ctx context.Context, b *sample.Batch)

	pinned     int64 // host bytes pinned outside staging
	fbOnCPU    bool
	ownFB      bool
	ownStaging bool
	closed     bool
}

// New builds an engine: estimates the per-batch node high-water mark,
// sizes and allocates the feature buffer (device memory for GPUs, host
// budget for CPU training) or borrows a parent's, builds the staging
// pool, and pins the in-memory topology metadata. It is the one place
// options become a buffer's slot count and resident tier.
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	cache *pagecache.Cache, rec *metrics.Recorder, opts Options) (*Engine, error) {
	opts.fillDefaults()
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	if opts.GPUDirect && dev.Kind() != device.GPU {
		return nil, errors.New("core: GPUDirect requires a GPU device")
	}
	e := &Engine{ds: ds, dev: dev, budget: budget, cache: cache, rec: rec, opts: opts}

	mb, err := sample.EstimateMaxBatchNodes(ds, opts.BatchSize, opts.Fanouts, 4, opts.Seed)
	if err != nil {
		return nil, err
	}

	// Host pins: indptr and labels stay in memory (§5 setup).
	if !opts.skipHostPins {
		hostPins := ds.IndptrBytes() + int64(len(ds.Labels))*4
		if err := budget.Pin("gnndrive indptr+labels", hostPins); err != nil {
			return nil, err
		}
		e.pinned = hostPins
	}

	if opts.sharedFB != nil {
		e.fb = opts.sharedFB // borrowed: ownFB stays false
	} else if err := e.newFeatureBuffer(mb); err != nil {
		e.release()
		return nil, err
	}
	opts = e.opts // with the extractors newFeatureBuffer kept
	// The slots beyond every sharing pipeline's working set keep the
	// hottest vectors resident; at FeatureBufferX 1 there are none.
	e.fb.addWorkingSet(ds.Indptr, opts.AutoFeatureSlots(mb))

	budget, units, unitBytes := e.budget, 0, 0
	switch {
	case opts.GPUDirect:
		// No host staging at all — the whole point of GDS. A tiny
		// bounce pool still backs the simulated reads, one unit each,
		// but it is not charged to the host budget (it stands in for
		// the GPU BAR).
		budget, units, unitBytes = nil, opts.ReadsInFlight(), gdsGranularity*2
	case opts.SharedStaging != nil:
		e.staging = opts.SharedStaging
	default:
		units, unitBytes = opts.StagingUnits(int(ds.FeatBytes())), StagingUnit
	}
	if e.staging == nil {
		staging, err := NewStaging(budget, units, unitBytes)
		if err != nil {
			e.release()
			return nil, err
		}
		e.staging, e.ownStaging = staging, true
	}

	e.indexFile = graph.IndicesFile(ds, cache)
	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })

	e.learn = NewLearner(ds, dev, opts.Knobs)
	if opts.CheckpointDir != "" {
		e.ckptSaver = &checkpoint.Saver{
			Dir: opts.CheckpointDir, Sink: opts.ckptSink,
		}
		e.ckptState = e.newRunState()
	}
	return e, nil
}

// newFeatureBuffer sizes and allocates the engine's own feature buffer
// for batches of up to mb unique nodes. The buffer must hold at least
// Ne x Mb slots for pipeline liveness (§4.2). If that minimum does not
// fit the device memory (GPU) or half the host budget (CPU training),
// it sheds extractors — the paper's own knob: "the staging buffer can
// be expanded or shrunk by adjusting the number of extractors, which we
// decide with regard to ... the capacity of available host memory".
func (e *Engine) newFeatureBuffer(mb int) error {
	ds, dev, opts := e.ds, e.dev, &e.opts
	featBytes := ds.FeatBytes()
	var fbLimit int64
	if dev.Kind() == device.GPU {
		fbLimit = dev.MemBytes() * 9 / 10
	} else {
		fbLimit = e.budget.Capacity() / 2
	}
	for {
		need := min(int64(opts.Extractors)*int64(mb), ds.NumNodes) * featBytes
		if need <= fbLimit {
			break
		}
		if opts.Extractors == 1 {
			oom := hostmem.ErrOOM
			if dev.Kind() == device.GPU {
				oom = device.ErrDeviceOOM
			}
			return fmt.Errorf("feature buffer needs %d bytes, limit %d: %w", need, fbLimit, oom)
		}
		opts.Extractors--
	}

	minSlots := min(opts.Extractors*mb, int(ds.NumNodes))
	limit := int(fbLimit / featBytes)
	slots := opts.FeatureSlots
	switch {
	case slots > 0:
	case opts.FeatureBufferX > 0:
		// Fig. 12's sweep: a multiple of the paper's minimum buffer,
		// within a GPU's allowance and the graph.
		slots = int(opts.FeatureBufferX * float64(paperExtractors*mb))
		if dev.Kind() == device.GPU {
			slots = min(slots, limit)
		}
		slots = min(slots, int(ds.NumNodes))
	default:
		// Auto-size: as much of the device allowance as helps
		// (inter-batch reuse, Fig. 12), never more than the whole
		// graph, never below the deadlock guard.
		slots = max(min(limit, int(ds.NumNodes)), minSlots)
	}
	if slots < minSlots {
		// The §4.2 deadlock guard: without Ne x Mb reserved slots the
		// pipeline can wedge with every extractor mid-batch.
		return fmt.Errorf("%w: %d slots < required %d", ErrBufferTooSmall, slots, minSlots)
	}
	fb := NewFeatureBuffer(ds.NumNodes, ds.Dim, slots)
	if dev.Kind() == device.GPU {
		if err := dev.Alloc("feature buffer", fb.Bytes()); err != nil {
			return err
		}
	} else {
		if err := e.budget.Pin("feature buffer (CPU training)", fb.Bytes()); err != nil {
			return err
		}
		e.fbOnCPU = true
	}
	e.fb, e.ownFB = fb, true
	return nil
}

// FeatureBuffer exposes the buffer for inspection.
func (e *Engine) FeatureBuffer() *FeatureBuffer { return e.fb }

// Model returns the real-training model (nil in modeled mode).
func (e *Engine) Model() *nn.Model { return e.learn.Model() }

// Close releases device memory and host pins.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.release()
}

func (e *Engine) release() {
	if e.staging != nil {
		if e.ownStaging {
			e.staging.Close()
		}
		e.staging = nil
	}
	if e.fb != nil {
		if e.ownFB {
			if e.fbOnCPU {
				e.budget.Unpin(e.fb.Bytes())
			} else {
				e.dev.Free(e.fb.Bytes())
			}
		}
		e.fb = nil
	}
	if e.pinned > 0 {
		e.budget.Unpin(e.pinned)
		e.pinned = 0
	}
}

// getBatch takes a recycled batch from the pool (or a fresh one).
func (e *Engine) getBatch() *sample.Batch {
	if b, ok := e.batchPool.Get().(*sample.Batch); ok {
		return b
	}
	return &sample.Batch{}
}

// putBatch returns a batch whose feature-buffer references have been
// dropped; its storage is reused by a later SampleBatchInto.
func (e *Engine) putBatch(b *sample.Batch) {
	if b != nil {
		e.batchPool.Put(b)
	}
}

// ckptRequest is one pending on-demand checkpoint demand; done closes
// when the trainer has consumed it.
type ckptRequest struct{ done chan struct{} }

// RequestCheckpoint asks the trainer to commit a checkpoint at the next
// step boundary and returns a channel that closes once the request has
// been consumed — by a mid-epoch save that is durable on disk (InOrder
// real-train runs, where the step cursor is exact) or by the end of the
// current epoch segment, whose boundary save supersedes it. This is the
// daemon's drain hook: request, wait with a grace timeout (an engine
// idle between epochs holds the request until its next segment), then
// cancel. With checkpointing disabled the returned channel is already
// closed. Concurrent requests coalesce onto one pending demand.
//
// Safe to call from any goroutine — including concurrently with the
// run finishing — so it reads only immutable and atomic engine state
// (never e.closed, which belongs to the owner goroutine). A request
// that lands after the final segment simply waits out the caller's
// grace timeout.
func (e *Engine) RequestCheckpoint() <-chan struct{} {
	if e.ckptSaver == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	req := &ckptRequest{done: make(chan struct{})}
	for {
		if cur := e.ckptReq.Load(); cur != nil {
			return cur.done
		}
		if e.ckptReq.CompareAndSwap(nil, req) {
			return req.done
		}
	}
}

// trainEpochSegment trains on the given target nodes; stepSync, when
// non-nil, is invoked by the trainer after every mini-batch (multi-device
// gradient synchronization). startStep skips the epoch's first batches —
// the resume path: a checkpoint cursor (epoch, step) re-enters here and
// the plan's deterministic shuffle plus per-batch reseeding reproduce
// the remaining batches exactly.
func (e *Engine) trainEpochSegment(ctx context.Context, epoch int, targets []int64, stepSync func(step int), startStep int) (EpochResult, error) {
	if e.closed {
		return EpochResult{}, errors.New("core: engine closed")
	}
	var col metrics.BreakdownCollector
	start := time.Now()

	// The feature buffer's counters, and those of the dataset backend's
	// integrity layer when it has one, are diffed over the epoch, so the
	// result reports this epoch's activity, not the run's cumulative.
	fbStart := e.fb.Stats()
	var integ storage.IntegrityStatser
	var integStart storage.IntegrityStats
	if is, ok := e.ds.Dev.(storage.IntegrityStatser); ok {
		integ = is
		integStart = is.IntegrityStats()
	}

	plan := e.opts.Plan(targets, epoch)

	extractQ := make(chan *sample.Batch, extractQueueCap)
	trainQ := make(chan *trainItem, e.opts.TrainQueueCap)
	releaseQ := make(chan *trainItem, e.opts.TrainQueueCap+2)

	// runCtx is the pipeline's life line: the first stage error or a
	// caller cancellation cancels it, and the condition-variable waits in
	// the feature buffer and staging pool are interrupted so every stage
	// observes the teardown promptly instead of wedging.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Capture the pointers: the kick runs on its own goroutine and must not
	// race with Close nil-ing the engine fields after the epoch returns.
	fb, staging := e.fb, e.staging
	stopKick := context.AfterFunc(runCtx, func() {
		fb.Interrupt()
		if staging != nil {
			staging.Interrupt()
		}
	})
	defer stopKick()

	var firstErr errutil.FirstError
	fail := func(err error) {
		if err != nil {
			firstErr.Set(err)
			cancel()
		}
	}
	failed := func() bool { return firstErr.Failed() || runCtx.Err() != nil }

	// Watchdog: per-stage heartbeats plus a supervisor that cancels the
	// epoch when nothing moves for StallDeadline, so a wedged stage
	// becomes a bounded, diagnosable failure instead of a silent hang.
	var hb heartbeats
	if deadline := e.opts.StallDeadline; deadline > 0 {
		dog := startWatchdog(&hb, deadline, func() stallDiag {
			return e.stallDiagnostics(&hb, extractQ, trainQ, releaseQ)
		}, func(diag stallDiag) {
			e.count(&col, metrics.Counters{Stalls: 1})
			e.opts.Tracer.Annotate(trace.StageWatchdog, "stall: "+diag.String())
			fail(fmt.Errorf("%w: no progress for %v (%s)", ErrPipelineStalled, deadline, diag))
		})
		defer dog.Stop()
	}

	// Sample stage: the sampler pool's workers finish at different paces,
	// so batches enter the extracting queue out of order (mini-batch
	// reordering, §4.3).
	go func() {
		fail(e.samplers(e.getBatch).Run(runCtx, epoch, plan.Batches, startStep,
			func(b *sample.Batch, c sample.Cost) error {
				col.AddSample(c.Took)
				e.opts.Tracer.Record(trace.StageSample, b.ID, c.Start, c.Start.Add(c.Took))
				e.rec.AddIOWait(c.IOWait)
				e.rec.AddCPU(c.Took - c.IOWait)
				hb.sample.Add(1)
				select {
				case extractQ <- b:
					return nil
				case <-runCtx.Done():
					e.putBatch(b)
					return runCtx.Err()
				}
			}))
		close(extractQ)
	}()

	// Extract stage.
	var extWG sync.WaitGroup
	for len(e.extractors) < e.opts.Extractors {
		e.extractors = append(e.extractors, newExtractor(e))
	}
	for _, x := range e.extractors {
		extWG.Add(1)
		go func() {
			defer extWG.Done()
			for b := range extractQ {
				if failed() {
					e.putBatch(b)
					continue
				}
				if e.testExtractHook != nil {
					e.testExtractHook(runCtx, b)
				}
				t0 := time.Now()
				item, st, err := x.extractBatch(runCtx, b)
				col.AddExtract(time.Since(t0))
				e.opts.Tracer.Record(trace.StageExtract, b.ID, t0, time.Now())
				e.count(&col, st)
				if err != nil {
					e.putBatch(b)
					fail(err)
					continue
				}
				hb.extract.Add(1)
				select {
				case trainQ <- item:
				case <-runCtx.Done():
					// The trainer is gone or draining; the batch will never
					// reach the releaser, so drop our references here.
					e.fb.Release(b.Nodes)
					PutReservation(item.res)
					putTrainItem(item)
					e.putBatch(b)
				}
			}
		}()
	}
	go func() {
		extWG.Wait()
		close(trainQ)
	}()

	// Train stage: single trainer, then hand the node list to the
	// releaser.
	var ckptErr error // the epoch's first checkpoint failure
	noteCkpt := func(err error) {
		if ckptErr == nil {
			ckptErr = err
		}
	}
	// Mid-epoch checkpoints need an exact cursor: "the first N trained
	// steps" must be a deterministic set, which only InOrder guarantees
	// (stage parallelism reorders mini-batches). Elsewhere the engine
	// still checkpoints — at epoch boundaries, where the cursor is exact
	// regardless of ordering.
	midEpochSave := e.ckptSaver != nil && e.opts.InOrder &&
		e.opts.CheckpointEverySteps > 0 && stepSync == nil
	// On-demand saves (RequestCheckpoint, the daemon's drain path) need
	// the same exact-cursor guarantee but no periodic cadence.
	demandSave := e.ckptSaver != nil && e.opts.InOrder && stepSync == nil
	var trainWG sync.WaitGroup
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		step := startStep
		// Gradient synchronization happens between the backward pass and
		// the optimizer step, which then applies the averaged gradients.
		var syncStep func()
		if stepSync != nil {
			syncStep = func() { stepSync(step) }
		}
		for item := range trainQ {
			if failed() {
				releaseQ <- item
				continue
			}
			t0 := time.Now()
			e.learn.Step(item.batch, e.gather(item), syncStep)
			d := time.Since(t0)
			if e.dev.Kind() == device.CPU {
				e.rec.AddCPU(d)
			}
			col.AddTrain(d)
			e.count(&col, metrics.Counters{Batches: 1})
			e.opts.Tracer.Record(trace.StageTrain, item.batch.ID, t0, time.Now())
			hb.train.Add(1)
			step++
			if midEpochSave && step%e.opts.CheckpointEverySteps == 0 && step < len(plan.Batches) {
				// The trainer owns model and optimizer state, so the
				// snapshot is consistent without locking; its commit runs
				// while the next steps train. A failed save is recorded,
				// not fatal: the crash-atomic commit means the previous
				// checkpoint is still intact.
				noteCkpt(e.startSave(epoch, step))
			}
			if req := e.ckptReq.Swap(nil); req != nil {
				// On-demand checkpoint (drain): commit at this exact step
				// cursor when the mode allows it, and close the request
				// only once the file is durable; otherwise the request is
				// satisfied by the upcoming epoch-boundary save.
				if demandSave && step < len(plan.Batches) {
					noteCkpt(e.startSave(epoch, step))
					noteCkpt(e.waitSave())
				}
				close(req.done)
			}
			// The reservation's alias list was consumed by the backward
			// pass (or the device model); the releaser recycles it after
			// the references are dropped, per PutReservation's contract.
			releaseQ <- item
		}
		close(releaseQ)
	}()

	// Release stage.
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		for item := range releaseQ {
			b := item.batch
			t0 := time.Now()
			e.fb.Release(b.Nodes)
			col.AddRelease(time.Since(t0))
			e.opts.Tracer.Record(trace.StageRelease, b.ID, t0, time.Now())
			hb.release.Add(1)
			PutReservation(item.res)
			putTrainItem(item)
			e.putBatch(b)
		}
	}()

	trainWG.Wait()
	relWG.Wait()

	if integ != nil {
		e.count(&col, metrics.Counters{Integrity: integ.IntegrityStats().Sub(integStart)})
	}
	res := e.learn.EndEpoch(col.Snapshot(time.Since(start)))
	res.FB = e.fb.Stats().Sub(fbStart)
	err := firstErr.Get()
	if err == nil {
		// Caller cancellation with no stage error still fails the epoch.
		err = ctx.Err()
	}
	if e.ckptSaver != nil {
		// No commit outlives the epoch: the last mid-epoch save lands
		// (or fails) before it returns.
		noteCkpt(e.waitSave())
	}
	if err == nil && e.ckptSaver != nil && stepSync == nil {
		// Epoch-boundary checkpoint: cursor (epoch+1, 0), durable on
		// return. Exact in every pipeline mode — reordering within a
		// completed epoch does not change which epoch comes next.
		noteCkpt(e.startSave(epoch+1, 0))
		noteCkpt(e.waitSave())
	}
	if req := e.ckptReq.Swap(nil); req != nil {
		// Segment over: the boundary save above (or the failure that ended
		// the segment) supersedes the request. Never strand the waiter.
		close(req.done)
	}
	res.CheckpointErr = ckptErr
	return res, err
}

// count hands one Counters delta to the epoch's collector and to the run's
// recorder — the only two places the engine's counters accumulate.
func (e *Engine) count(col *metrics.BreakdownCollector, d metrics.Counters) {
	col.Add(d)
	e.rec.Add(d)
}

// gather copies the batch's features out of the feature buffer, through
// the reservation's alias list, into the learner's input (real training
// only; nil otherwise).
func (e *Engine) gather(item *trainItem) *tensor.Matrix {
	x := e.learn.Input(item.batch)
	if x != nil {
		for i := range item.batch.Nodes {
			copy(x.Row(i), e.fb.SlotData(item.res.Alias[i]))
		}
	}
	return x
}

// samplers is the engine's sample stage: Samplers workers, each reading
// topology through the shared page cache with the run's ctx riding its
// faults, so a cancelled epoch does not wait out a page read stuck at the
// device.
func (e *Engine) samplers(get func() *sample.Batch) sample.Pool {
	return sample.Pool{Workers: e.opts.Samplers, Fanouts: e.opts.Fanouts, Seed: e.opts.Seed, Get: get,
		Reader: func(ctx context.Context) graph.NeighborReader {
			r := graph.NewCachedReader(e.ds, e.cache, e.indexFile)
			r.SetContext(ctx)
			return r
		}}
}

// SampleOnly runs the sample stage alone for one epoch (the paper's
// "-only" measurements, Fig. 2) and returns the summed sampling time.
// Cancelling ctx aborts the samplers' topology faults and stops them
// between batches.
func (e *Engine) SampleOnly(ctx context.Context, epoch int) (time.Duration, error) {
	return e.samplers(nil).SampleOnly(ctx, epoch, e.opts.Plan(e.ds.TrainIdx, epoch).Batches, e.rec.AddIOWait)
}

// EvaluateVal runs an untimed real-math evaluation on the validation
// split and returns accuracy. Requires RealTrain mode.
func (e *Engine) EvaluateVal() (float64, error) {
	if e.learn.model == nil {
		return 0, errors.New("core: EvaluateVal needs RealTrain mode")
	}
	return EvaluateModel(e.ds, e.learn.model, e.opts.Fanouts, e.ds.ValIdx, e.opts.Seed)
}

// EvaluateModel measures accuracy of a model over the given nodes with
// untimed raw reads (no I/O model involvement).
func EvaluateModel(ds *graph.Dataset, model *nn.Model, fanouts []int, nodes []int64, seed uint64) (float64, error) {
	if len(nodes) == 0 {
		return 0, errors.New("core: empty evaluation set")
	}
	smp := sample.New(graph.NewRawReader(ds), fanouts, tensor.NewRNG(seed*13+5))
	const evalBatch = 200
	correct, total := 0, 0
	for lo := 0; lo < len(nodes); lo += evalBatch {
		hi := lo + evalBatch
		if hi > len(nodes) {
			hi = len(nodes)
		}
		b, _, err := smp.SampleBatch(lo/evalBatch, nodes[lo:hi])
		if err != nil {
			return 0, err
		}
		x := tensor.New(len(b.Nodes), ds.Dim)
		for i, v := range b.Nodes {
			if _, err := ds.ReadFeatureRaw(v, x.Row(i)[:0]); err != nil {
				return 0, err
			}
		}
		logits := model.Predict(b, x)
		pred := tensor.Argmax(logits)
		for i := 0; i < b.NumTargets; i++ {
			if pred[i] == ds.Labels[b.Nodes[i]] {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total), nil
}
