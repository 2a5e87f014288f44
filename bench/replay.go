package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
	"gnndrive/internal/uring"
)

// Names of the replay pass's spans, one per call into a layer.
const (
	spanBatch      = "batch"
	spanSample     = "sample"
	spanReserve    = "featbuf.reserve"
	spanPlan       = "plan"
	spanSubmit     = "uring.submit"
	spanWait       = "uring.wait"
	spanDeviceCopy = "device.copy"
	spanStep       = "nn.step"
	spanCompute    = "device.compute"
	spanRelease    = "featbuf.release"
	spanCheckpoint = "checkpoint.save"
)

// replayBatches bounds how much of each epoch's schedule the replay pass
// walks: a prefix is enough for per-call costs and exact counts, and
// keeps the traced run inside its time budget.
const replayBatches = 64

// replay drives one workload's exact batch schedule serially — one batch
// at a time, one goroutine — through the layers' public functions, with a
// span around each call. Epoch 0 warms the feature buffer and page cache;
// epoch 1 is reported. Because nothing runs concurrently, its counts
// repeat exactly from run to run; they are the only counts a count-based
// claim may rest on.
//
// Each layer's step lives in that layer's probe_<layer>.go.
type replay struct {
	ctx  context.Context
	d    *rigData
	opts core.Options
	rec  *spanRec

	budget     *hostmem.Budget
	pinned     int64
	dev        *device.Device
	cache      *pagecache.Cache
	fb         *core.FeatureBuffer
	staging    *core.Staging
	ownStaging bool
	ring       *uring.Ring

	// sample
	reader  *neighborProbe
	sampler *sample.Sampler
	batch   sample.Batch
	// plan
	loadNodes  []int64
	positions  []int32
	plan       []core.ReadOp
	addrPlan   core.AddrPlanner
	planOps    int64
	planAllocs uint64
	// uring, staging, device
	opSlot      []int32
	acquireNs   int64
	acquires    int64
	xferWG      sync.WaitGroup
	markValidNs atomic.Int64
	// nn
	model      *nn.Model
	opt        *nn.Adam
	x          *tensor.Matrix
	labels     []int32
	stepAllocs uint64
	steps      int64
	// checkpoint
	saver     *checkpoint.Saver
	saves     int64
	saveBytes int64
}

func newReplay(d *rigData) (*replay, error) {
	r := &replay{ctx: context.Background(), d: d, rec: newSpanRec()}
	ds := d.ds
	r.budget = hostBudget(d.cfg)
	r.dev = rigDevice(d.cfg)
	o, err := engineOptions(d.cfg, ds, r.dev)
	if err != nil {
		r.dev.Close()
		return nil, err
	}
	r.opts = o

	// The same host pins the engine takes, so the page cache gets the
	// same allowance.
	r.pinned = ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := r.budget.Pin("replay indptr+labels", r.pinned); err != nil {
		r.dev.Close()
		return nil, err
	}
	slots, err := featureSlots(o, d, r.dev)
	if err != nil {
		r.close()
		return nil, err
	}
	r.fb = core.NewFeatureBuffer(ds.NumNodes, ds.Dim, slots)
	if d.cfg.SharedStaging != nil {
		r.staging = d.cfg.SharedStaging
	} else {
		if r.staging, err = stagingFor(r.budget, ds, o); err != nil {
			r.close()
			return nil, err
		}
		r.ownStaging = true
	}
	r.cache = pagecache.New(ds.Dev, r.budget)
	r.ring = uring.NewRing(ds.Dev, o.RingDepth)
	r.initSample()
	r.initTrain()
	return r, nil
}

// featureSlots is core.New's feature-buffer sizing.
func featureSlots(o core.Options, d *rigData, dev *device.Device) (int, error) {
	ds := d.ds
	mb, err := sample.EstimateMaxBatchNodes(ds, o.BatchSize, o.Fanouts, 4, o.Seed)
	if err != nil {
		return 0, err
	}
	featBytes := ds.FeatBytes()
	fbLimit := dev.MemBytes() * 9 / 10
	minSlots := o.Extractors * mb
	if minSlots > int(ds.NumNodes) {
		minSlots = int(ds.NumNodes)
	}
	slots := o.FeatureSlots
	if slots == 0 {
		slots = (o.Extractors + o.TrainQueueCap + 1) * mb
		if s := int(fbLimit / featBytes); s > slots {
			slots = s
		}
		if slots > int(ds.NumNodes) {
			slots = int(ds.NumNodes)
		}
		if int64(slots)*featBytes > fbLimit {
			slots = int(fbLimit / featBytes)
		}
	}
	if slots < minSlots {
		return 0, fmt.Errorf("replay: %d feature slots < required %d", slots, minSlots)
	}
	return slots, nil
}

func (r *replay) close() {
	if r.ownStaging && r.staging != nil {
		r.staging.Close()
	}
	if r.pinned > 0 {
		r.budget.Unpin(r.pinned)
	}
	r.dev.Close()
}

// replayMark is every outside counter the reported epoch is measured
// from, taken when it starts.
type replayMark struct {
	spanStart int64
	fb        core.FeatureBufferStats
	pc        pagecache.Stats
	inner     backendCounts
	top       backendCounts
	flushes   int64
}

func (r *replay) mark() replayMark {
	return replayMark{r.rec.now(), r.fb.Stats(), r.cache.Stats(), r.d.inner.counts(),
		r.d.top().counts(), r.ring.Flushes()}
}

// resetAccumulators zeroes the per-step sums at the start of the
// reported epoch.
func (r *replay) resetAccumulators() {
	r.reader.calls, r.reader.ns = 0, 0
	r.planOps, r.planAllocs = 0, 0
	r.acquireNs, r.acquires = 0, 0
	r.markValidNs.Store(0)
	r.stepAllocs, r.steps = 0, 0
	r.saves, r.saveBytes = 0, 0
}

// oneBatch walks one mini-batch through sample → reserve → plan → read →
// transfer → train → release, as the engine's stages would.
func (r *replay) oneBatch(epoch, i int, targets []int64) error {
	root := r.rec.begin(spanBatch, noSpan, i)
	defer r.rec.end(root)
	b, err := r.sampleStep(root, epoch, i, targets)
	if err != nil {
		return err
	}
	res, err := r.reserveStep(root, i, b)
	if err != nil {
		return err
	}
	plan, err := r.planStep(root, i, b, res)
	if err == nil {
		err = r.readStep(root, i, b, res, plan)
	}
	if err == nil {
		err = r.fb.WaitValidCtx(r.ctx, res.Wait)
	}
	if err != nil {
		r.fb.Release(b.Nodes)
		core.PutReservation(res)
		return err
	}
	r.trainStep(root, i, b, res)
	r.releaseStep(root, i, b, res)
	return nil
}

// runReplayPass runs the replay and fills the replay-sourced metrics.
func runReplayPass(d *rigData, limit int, res *runResult, t *tally, m metricSet) ([]traceEvent, error) {
	r, err := newReplay(d)
	if err != nil {
		return nil, err
	}
	defer r.close()
	d.probing(true)
	defer d.probing(false)

	var (
		mk      replayMark
		batches int
	)
	for epoch := 0; epoch < 2; epoch++ {
		plan := sample.NewPlan(d.ds.TrainIdx, r.opts.BatchSize,
			tensor.NewRNG(sample.PlanSeed(r.opts.Seed, epoch)))
		n := len(plan.Batches)
		if n > limit {
			n = limit
		}
		if epoch == 1 {
			mk = r.mark()
			r.resetAccumulators()
			batches = n
		}
		for i := 0; i < n; i++ {
			if err := r.oneBatch(epoch, i, plan.Batches[i]); err != nil {
				return nil, fmt.Errorf("replay epoch %d batch %d: %w", epoch, i, err)
			}
			if err := r.checkpointStep(epoch, i+1, n); err != nil {
				return nil, fmt.Errorf("replay checkpoint: %w", err)
			}
		}
	}
	t.check("replay leaves no feature-buffer references", r.fb.TotalRefs() == 0,
		fmt.Sprintf("TotalRefs=%d", r.fb.TotalRefs()))
	t.check("replay leaves no staging slots held", r.staging.InFlight() == 0,
		fmt.Sprintf("InFlight=%d", r.staging.InFlight()))

	spans := r.rec.snapshot()
	totals := spanTotals(spans, func(s span) bool { return s.start >= mk.spanStart })
	r.metrics(m, totals, mk, float64(batches))
	return replayEvents(spans, func(s span) bool {
		return s.start >= mk.spanStart && s.batch < traceBatches
	}, 2), nil
}

// metrics turns the reported epoch's spans and counters into metrics;
// each layer's part is in its probe file.
func (r *replay) metrics(m metricSet, totals map[string]spanTotal, mk replayMark, batches float64) {
	perBatchUs := func(name string) float64 { return ratio(float64(totals[name].self)/1e3, batches) }
	r.sampleMetrics(m, perBatchUs, mk, batches)
	r.featbufMetrics(m, perBatchUs, mk, batches)
	r.planMetrics(m, perBatchUs, batches)
	r.uringMetrics(m, perBatchUs, mk, batches)
	r.stagingMetrics(m, batches)
	r.deviceMetrics(m, totals)
	r.nnMetrics(m, totals)
	r.checkpointMetrics(m, totals)
}
