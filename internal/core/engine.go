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

// Options configures a GNNDrive engine. Zero fields take defaults from
// DefaultOptions.
type Options struct {
	Model  nn.ModelKind
	Hidden int
	Layers int

	BatchSize int
	Fanouts   []int

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
	// FeatureSlots overrides the feature-buffer capacity (0 = auto-size
	// to (extractors + train queue + 1) x estimated max batch nodes).
	FeatureSlots int
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

	// RealTrain runs actual float32 training math (convergence
	// experiments); otherwise the train stage uses the device time model.
	RealTrain bool
	LR        float32

	Seed uint64

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
	// OnStall, when non-nil, receives the watchdog's structured
	// diagnostics snapshot when the stall fires (once per stalled
	// epoch, from the watchdog goroutine). Supervisors use it to decide
	// requeue-vs-fail without parsing the trace string.
	OnStall func(StallDiagnostics)

	// IOGate, when non-nil, rations this engine's extract reads against
	// a shared submit path: every in-flight backend read holds one
	// permit. The serve daemon hands each job a fair-share view of one
	// token pool; nil leaves reads bounded only by ring depth and
	// staging slots.
	IOGate IOGate

	// The unexported options have no setter outside this package: Parallel
	// sets the two sharing ones for its workers, in-package tests set the
	// rest, and everyone else gets DefaultOptions/fillDefaults.

	// shuffle randomizes mini-batch target order every epoch.
	shuffle bool
	// retryBudget is the per-read retry budget for transient storage
	// errors before the error escalates and aborts the epoch (0 = the
	// default 3; negative disables retries).
	retryBudget int
	// retryBackoff is the base delay of the retry backoff (exponential
	// with jitter, capped; 0 = the default 100µs).
	retryBackoff time.Duration
	// checkpointKeep is how many committed checkpoints to retain
	// (keep-last-K; 0 = the Saver's default 3).
	checkpointKeep int
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

// DefaultOptions returns the paper's empirical configuration (§5).
func DefaultOptions(model nn.ModelKind) Options {
	// The paper uses batch 1,000 and fanouts (10,10,10) / (10,10,5) on
	// graphs of 41-122M nodes. At 1:1000 graph scale a sampled batch
	// cannot shrink 1000x (fanout products don't scale), so batch 50 and
	// fanouts (3,3,3) / (3,3,2) are chosen to preserve the ratio the
	// experiments actually exercise: sampled-batch bytes vs device and
	// host memory (~10% of device memory at dim 128, as in the paper).
	fan := []int{3, 3, 3}
	if model == nn.GAT {
		fan = []int{3, 3, 2}
	}
	return Options{
		Model:         model,
		Hidden:        256,
		Layers:        3,
		BatchSize:     50,
		Fanouts:       fan,
		Samplers:      4,
		Extractors:    4,
		TrainQueueCap: 4,
		RingDepth:     64,
		MaxJointRead:  16 << 10,
		shuffle:       true,
		LR:            0.003,
		Seed:          1,
	}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions(o.Model)
	if o.Hidden == 0 {
		o.Hidden = d.Hidden
	}
	if o.Layers == 0 {
		o.Layers = d.Layers
	}
	if o.BatchSize == 0 {
		o.BatchSize = d.BatchSize
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = d.Fanouts
	}
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
	if o.retryBudget == 0 {
		o.retryBudget = 3
	} else if o.retryBudget < 0 {
		o.retryBudget = 0
	}
	if o.retryBackoff == 0 {
		o.retryBackoff = 100 * time.Microsecond
	}
	if o.LR == 0 {
		o.LR = d.LR
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.InOrder {
		// Reordering comes from stage parallelism; the ordered ablation
		// runs one worker per stage.
		o.Samplers, o.Extractors = 1, 1
	}
}

// StagingGeometry is the staging pool an engine with these options builds
// for itself: one slot per read its extractors can have in flight, each
// large enough for a joint read or one sector-padded feature vector.
func (o Options) StagingGeometry(featBytes int) (slots, slotBytes int) {
	o.fillDefaults()
	slotBytes = o.MaxJointRead
	if slotBytes < featBytes {
		slotBytes = (featBytes + 511) / 512 * 512
	}
	return o.Extractors * o.RingDepth, slotBytes
}

// AutoFeatureSlots is the feature buffer's pipeline working set for
// batches of up to batchNodes unique nodes: one batch per extractor, one
// per train-queue entry, and the one being trained. An engine with
// FeatureSlots 0 allocates at least this much (more when the device has
// room, never more than the graph).
func (o Options) AutoFeatureSlots(batchNodes int) int {
	o.fillDefaults()
	return (o.Extractors + o.TrainQueueCap + 1) * batchNodes
}

// EpochResult reports one training epoch.
type EpochResult struct {
	metrics.Breakdown
	// Loss and Acc are averaged over mini-batches (real training only).
	Loss float64
	Acc  float64
	// StepLosses is the per-step loss sequence in trainer order (real
	// training only) — the deterministic-resume contract is that a
	// resumed run's tail matches the uninterrupted run's bit for bit.
	StepLosses []float32
	// CheckpointErr is the first checkpoint-save failure of the epoch,
	// if any. Save failures never fail training: a torn commit leaves
	// only the previous checkpoint visible, so the run stays resumable
	// — just from an older cursor.
	CheckpointErr error
	// FB summarizes feature-buffer reuse for the epoch's end state.
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

	model *nn.Model
	opt   *nn.Adam

	// batchPool recycles sampled batches through the pipeline: the sample
	// stage takes, the release stage returns. Steady-state epochs sample
	// into pre-grown node and edge arrays instead of allocating.
	batchPool sync.Pool
	// trainX and trainLabels are the trainer's gather scratch (the train
	// stage is a single goroutine).
	trainX      *tensor.Matrix
	trainLabels []int32
	// extractors outlive epochs, so their ring, plan scratch and transfer
	// records are grown once per run rather than once per epoch. The
	// extract goroutines of one epoch use one each.
	extractors []*extractor

	// ckptSaver commits run state to Options.CheckpointDir (nil when
	// checkpointing is disabled).
	ckptSaver *checkpoint.Saver
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
// budget for CPU training) and the staging pool, and pins the in-memory
// topology metadata.
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	cache *pagecache.Cache, rec *metrics.Recorder, opts Options) (*Engine, error) {
	opts.fillDefaults()
	if rec == nil {
		rec = metrics.NewRecorder()
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
		e.fb = opts.sharedFB
		e.ownFB = false
		return e.finishSetup(ds, dev, cache, rec, opts)
	}

	// The feature buffer must hold at least Ne x Mb slots for pipeline
	// liveness (§4.2). If that minimum does not fit the device memory
	// (GPU) or half the host budget (CPU training), shed extractors —
	// the paper's own knob: "the staging buffer can be expanded or
	// shrunk by adjusting the number of extractors, which we decide with
	// regard to ... the capacity of available host memory".
	featBytes := ds.FeatBytes()
	var fbLimit int64
	if dev.Kind() == device.GPU {
		fbLimit = dev.MemBytes() * 9 / 10
	} else {
		fbLimit = budget.Capacity() / 2
	}
	for {
		min := int64(opts.Extractors) * int64(mb)
		if min > ds.NumNodes {
			min = ds.NumNodes
		}
		if min*featBytes <= fbLimit {
			break
		}
		if opts.Extractors == 1 {
			e.release()
			if dev.Kind() == device.GPU {
				return nil, fmt.Errorf("feature buffer needs %d bytes, limit %d: %w",
					min*featBytes, fbLimit, device.ErrDeviceOOM)
			}
			return nil, fmt.Errorf("feature buffer needs %d bytes, limit %d: %w",
				min*featBytes, fbLimit, hostmem.ErrOOM)
		}
		opts.Extractors--
	}
	e.opts = opts

	minSlots := opts.Extractors * mb
	if minSlots > int(ds.NumNodes) {
		minSlots = int(ds.NumNodes)
	}
	slots := opts.FeatureSlots
	if slots == 0 {
		// Auto-size: at least the pipeline's working set, and as much of
		// the device allowance as helps (inter-batch reuse, Fig. 12) —
		// never more than the whole graph.
		slots = opts.AutoFeatureSlots(mb)
		if s := int(fbLimit / featBytes); s > slots {
			slots = s
		}
		if slots > int(ds.NumNodes) {
			slots = int(ds.NumNodes)
		}
		if int64(slots)*featBytes > fbLimit {
			slots = int(fbLimit / featBytes)
		}
		if slots < minSlots {
			slots = minSlots
		}
	}
	if slots < minSlots {
		// The §4.2 deadlock guard: without Ne x Mb reserved slots the
		// pipeline can wedge with every extractor mid-batch.
		e.release()
		return nil, fmt.Errorf("%w: %d slots < required %d", ErrBufferTooSmall, slots, minSlots)
	}
	fb := NewFeatureBuffer(ds.NumNodes, ds.Dim, slots)
	if dev.Kind() == device.GPU {
		if err := dev.Alloc("feature buffer", fb.Bytes()); err != nil {
			e.release()
			return nil, err
		}
	} else {
		if err := budget.Pin("feature buffer (CPU training)", fb.Bytes()); err != nil {
			e.release()
			return nil, err
		}
		e.fbOnCPU = true
	}
	e.fb = fb
	e.ownFB = true

	return e.finishSetup(ds, dev, cache, rec, opts)
}

// finishSetup builds the staging pool, index file, and optional real
// model once the feature buffer exists.
func (e *Engine) finishSetup(ds *graph.Dataset, dev *device.Device,
	cache *pagecache.Cache, rec *metrics.Recorder, opts Options) (*Engine, error) {
	if opts.GPUDirect && dev.Kind() != device.GPU {
		e.release()
		return nil, errors.New("core: GPUDirect requires a GPU device")
	}
	switch {
	case opts.GPUDirect:
		// No host staging at all — the whole point of GDS. A tiny
		// bounce pool still backs the simulated reads, but it is not
		// charged to the host budget (it stands in for the GPU BAR).
		staging, err := NewStaging(nil, opts.Extractors*opts.RingDepth, gdsGranularity*2)
		if err != nil {
			e.release()
			return nil, err
		}
		e.staging = staging
		e.ownStaging = true
	case opts.SharedStaging != nil:
		e.staging = opts.SharedStaging
		e.ownStaging = false
	default:
		slots, slotBytes := opts.StagingGeometry(int(ds.FeatBytes()))
		staging, err := NewStaging(e.budget, slots, slotBytes)
		if err != nil {
			e.release()
			return nil, err
		}
		e.staging = staging
		e.ownStaging = true
	}

	// Offer the staging pool's backing allocation to the backend as a
	// fixed io_uring buffer region: on the linuring backend every
	// staging-slot read then goes out as READ_FIXED, skipping per-read
	// page pinning. Registration is strictly optional — a refusal
	// (RLIMIT_MEMLOCK, table limits, non-ring backend) changes nothing
	// but the opcode, so the error is dropped by design.
	if reg, ok := ds.Dev.(storage.BufferRegistrar); ok && e.staging != nil {
		_ = reg.RegisterBuffers(e.staging.Region())
	}

	e.indexFile = graph.IndicesFile(ds, cache)
	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })

	if opts.RealTrain {
		cfg := nn.Config{Kind: opts.Model, InDim: ds.Dim, Hidden: opts.Hidden,
			Classes: ds.NumClasses, Layers: opts.Layers}
		e.model = nn.NewModel(cfg, tensor.NewRNG(opts.Seed*7919))
		e.opt = nn.NewAdam(opts.LR)
	}
	if opts.CheckpointDir != "" {
		e.ckptSaver = &checkpoint.Saver{
			Dir: opts.CheckpointDir, Keep: opts.checkpointKeep, Sink: opts.ckptSink,
		}
	}
	return e, nil
}

// FeatureBuffer exposes the buffer for inspection.
func (e *Engine) FeatureBuffer() *FeatureBuffer { return e.fb }

// Model returns the real-training model (nil in modeled mode).
func (e *Engine) Model() *nn.Model { return e.model }

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

// RunEpochCtx runs one full pass over the training set through the
// four-stage pipeline and returns its timing breakdown. When ctx is
// cancelled (or a permanent storage error escalates) the four stages tear
// down promptly, leaving no goroutine, staging slot, or feature-buffer
// reference behind, and the cause is returned.
func (e *Engine) RunEpochCtx(ctx context.Context, epoch int) (EpochResult, error) {
	return e.trainEpochSegment(ctx, epoch, e.ds.TrainIdx, nil, 0)
}

// ckptRequest is one pending on-demand checkpoint demand; done closes
// when the trainer has consumed it.
type ckptRequest struct{ done chan struct{} }

// RequestCheckpoint asks the trainer to commit a checkpoint at the next
// step boundary and returns a channel that closes once the request has
// been consumed — by an actual mid-epoch save (InOrder real-train runs,
// where the step cursor is exact) or by the end of the current epoch
// segment, whose boundary save supersedes it. This is the daemon's
// drain hook: request, wait with a grace timeout (an engine idle
// between epochs holds the request until its next segment), then
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

// batchSeed derives one mini-batch's sampling stream from the run seed
// and the batch's identity. The derivation lives in sample.BatchSeed so
// offline consumers (the layout packer's trace generator) can reproduce
// the engine's batches exactly.
func batchSeed(seed uint64, epoch, batch int) uint64 {
	return sample.BatchSeed(seed, epoch, batch)
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

	// When the dataset's backend carries an integrity layer, diff its
	// counters over the epoch so the breakdown reports this epoch's
	// checksum/repair/hedge/breaker activity, not the run's cumulative.
	var integ storage.IntegrityStatser
	var integStart storage.IntegrityStats
	if is, ok := e.ds.Dev.(storage.IntegrityStatser); ok {
		integ = is
		integStart = is.IntegrityStats()
	}

	var planRNG *tensor.RNG
	if e.opts.shuffle {
		planRNG = tensor.NewRNG(sample.PlanSeed(e.opts.Seed, epoch))
	}
	plan := sample.NewPlan(targets, e.opts.BatchSize, planRNG)

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
		dog := startWatchdog(&hb, deadline, func() StallDiagnostics {
			return e.stallDiagnostics(&hb, extractQ, trainQ, releaseQ)
		}, func(diag StallDiagnostics) {
			e.count(&col, metrics.Counters{Stalls: 1})
			e.opts.Tracer.Annotate(trace.StageWatchdog, "stall: "+diag.String())
			if f := e.opts.OnStall; f != nil {
				f(diag)
			}
			fail(fmt.Errorf("%w: no progress for %v (%s)", ErrPipelineStalled, deadline, diag))
		})
		defer dog.Stop()
	}

	// Sample stage: a pool of samplers pulling batch indexes; they finish
	// at different paces, so batches enter the extracting queue out of
	// order (mini-batch reordering, §4.3).
	var next atomic.Int64
	next.Store(int64(startStep))
	var sampWG sync.WaitGroup
	for s := 0; s < e.opts.Samplers; s++ {
		sampWG.Add(1)
		go func(sid int) {
			defer sampWG.Done()
			reader := graph.NewCachedReader(e.ds, e.cache, e.indexFile)
			// Topology faults carry the run's ctx, so a cancelled epoch
			// does not wait out a page read stuck at the device.
			reader.SetContext(runCtx)
			smp := sample.New(reader, e.opts.Fanouts,
				tensor.NewRNG(e.opts.Seed+uint64(epoch)*1000+uint64(sid)*31+7))
			for !failed() {
				i := int(next.Add(1)) - 1
				if i >= len(plan.Batches) {
					return
				}
				t0 := time.Now()
				b := e.getBatch()
				smp.Reseed(batchSeed(e.opts.Seed, epoch, i))
				ioWait, err := smp.SampleBatchInto(b, i, plan.Batches[i])
				d := time.Since(t0)
				col.AddSample(d)
				e.opts.Tracer.Record(trace.StageSample, i, t0, time.Now())
				e.rec.AddIOWait(ioWait)
				e.rec.AddCPU(d - ioWait)
				if err != nil {
					e.putBatch(b)
					fail(err)
					return
				}
				hb.sample.Add(1)
				select {
				case extractQ <- b:
				case <-runCtx.Done():
					e.putBatch(b)
					return
				}
			}
		}(s)
	}
	go func() {
		sampWG.Wait()
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
	var lossSum, accSum float64
	var stepLosses []float32
	var ckptErr error
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
		for item := range trainQ {
			if failed() {
				releaseQ <- item
				continue
			}
			t0 := time.Now()
			if e.opts.RealTrain {
				loss, acc := e.trainRealBackward(item)
				lossSum += float64(loss)
				accSum += acc
				stepLosses = append(stepLosses, loss)
			} else {
				e.dev.Compute(e.workFor(item.batch))
			}
			// Gradient synchronization happens in the backward pass,
			// before the optimizer applies the (now averaged) gradients.
			if stepSync != nil {
				stepSync(step)
			}
			if e.opts.RealTrain {
				e.opt.Step(e.model.Params())
			}
			d := time.Since(t0)
			if e.opts.RealTrain {
				e.dev.AddComputeBusy(d)
			}
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
				// snapshot is consistent without locking. A failed save
				// is recorded, not fatal: the crash-atomic commit means
				// the previous checkpoint is still intact.
				if err := e.saveRunState(epoch, step); err != nil && ckptErr == nil {
					ckptErr = err
				}
			}
			if req := e.ckptReq.Swap(nil); req != nil {
				// On-demand checkpoint (drain): commit at this exact step
				// cursor when the mode allows it; otherwise the request is
				// satisfied by the upcoming epoch-boundary save.
				if demandSave && step < len(plan.Batches) {
					if err := e.saveRunState(epoch, step); err != nil && ckptErr == nil {
						ckptErr = err
					}
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
	res := EpochResult{
		Breakdown: col.Snapshot(time.Since(start)),
		FB:        e.fb.Stats(),
	}
	res.StepLosses = stepLosses
	if res.Batches > 0 && e.opts.RealTrain {
		res.Loss = lossSum / float64(res.Batches)
		res.Acc = accSum / float64(res.Batches)
	}
	err := firstErr.Get()
	if err == nil {
		// Caller cancellation with no stage error still fails the epoch.
		err = ctx.Err()
	}
	if err == nil && e.ckptSaver != nil && stepSync == nil {
		// Epoch-boundary checkpoint: cursor (epoch+1, 0). Exact in every
		// pipeline mode — reordering within a completed epoch does not
		// change which epoch comes next.
		if serr := e.saveRunState(epoch+1, 0); serr != nil && ckptErr == nil {
			ckptErr = serr
		}
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

// workFor builds the device-model work description of one batch.
func (e *Engine) workFor(b *sample.Batch) device.Work {
	return device.Work{
		Model:    e.opts.Model,
		Nodes:    int64(len(b.Nodes)),
		Edges:    b.NumEdges(),
		InDim:    e.ds.Dim,
		Hidden:   e.opts.Hidden,
		Classes:  e.ds.NumClasses,
		Layers:   e.opts.Layers,
		Backward: true,
	}
}

// trainRealBackward gathers the batch's features from the feature buffer
// via the node alias list and runs a real forward + backward pass, leaving
// gradients accumulated for the optimizer (after any gradient sync).
func (e *Engine) trainRealBackward(item *trainItem) (float32, float64) {
	b := item.batch
	e.trainX = tensor.EnsureShape(e.trainX, len(b.Nodes), e.ds.Dim)
	x := e.trainX
	for i := range b.Nodes {
		copy(x.Row(i), e.fb.SlotData(item.res.Alias[i]))
	}
	if cap(e.trainLabels) < b.NumTargets {
		e.trainLabels = make([]int32, b.NumTargets)
	}
	labels := e.trainLabels[:b.NumTargets]
	for i := 0; i < b.NumTargets; i++ {
		labels[i] = e.ds.Labels[b.Nodes[i]]
	}
	// Loss consumes x during the forward+backward pass; nothing retains
	// it afterwards, so the scratch is safe to reuse next batch.
	return e.model.Loss(b, x, labels)
}

// SampleOnly runs the sample stage alone for one epoch (the paper's
// "-only" measurements, Fig. 2) and returns the summed sampling time.
// ctx rides the samplers' topology faults and stops them between
// batches; nil never cancels (the storage.Request.Ctx convention).
func (e *Engine) SampleOnly(ctx context.Context, epoch int) (time.Duration, error) {
	var planRNG *tensor.RNG
	if e.opts.shuffle {
		planRNG = tensor.NewRNG(sample.PlanSeed(e.opts.Seed, epoch))
	}
	plan := sample.NewPlan(e.ds.TrainIdx, e.opts.BatchSize, planRNG)
	var next atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup
	var firstErr errutil.FirstError
	for s := 0; s < e.opts.Samplers; s++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			reader := graph.NewCachedReader(e.ds, e.cache, e.indexFile)
			reader.SetContext(ctx)
			smp := sample.New(reader, e.opts.Fanouts,
				tensor.NewRNG(e.opts.Seed+uint64(epoch)*1000+uint64(sid)*31+7))
			for !firstErr.Failed() {
				if ctx != nil && ctx.Err() != nil {
					firstErr.Set(ctx.Err())
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(plan.Batches) {
					return
				}
				t0 := time.Now()
				smp.Reseed(batchSeed(e.opts.Seed, epoch, i))
				_, ioWait, err := smp.SampleBatch(i, plan.Batches[i])
				if err != nil {
					firstErr.Set(err)
					return
				}
				total.Add(int64(time.Since(t0)))
				e.rec.AddIOWait(ioWait)
			}
		}(s)
	}
	wg.Wait()
	if err := firstErr.Get(); err != nil {
		return 0, err
	}
	return time.Duration(total.Load()), nil
}

// EvaluateVal runs an untimed real-math evaluation on the validation
// split and returns accuracy. Requires RealTrain mode.
func (e *Engine) EvaluateVal() (float64, error) {
	if e.model == nil {
		return 0, errors.New("core: EvaluateVal needs RealTrain mode")
	}
	return EvaluateModel(e.ds, e.model, e.opts.Fanouts, e.ds.ValIdx, e.opts.Seed)
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
			ds.ReadFeatureRaw(v, x.Row(i)[:0])
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
