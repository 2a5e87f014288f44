package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/pagecache"
)

// Parallel trains with data parallelism across multiple devices (Fig. 7):
// the training set is split into segments, each worker owns a full
// pipeline (samplers, extractors, trainer, releaser, queues) and its own
// device-resident feature buffer, while topology metadata and the staging
// buffer are shared. After every mini-batch the workers synchronize
// gradients; the all-reduce cost and per-step IPC overhead are modeled,
// and in real-training mode gradients are genuinely averaged so the
// replicas stay consistent.
type Parallel struct {
	engines []*Engine
	staging *Staging
	budget  *hostmem.Budget
	pinned  int64

	barrier   *stepBarrier
	gradBytes int64
	busBps    float64
	syncBase  time.Duration
	timeScale float64
	realTrain bool
}

// ParallelConfig tunes the synchronization model.
type ParallelConfig struct {
	// BusBps is the inter-device (PCIe/NVLink) all-reduce bandwidth.
	BusBps float64
	// SyncBase is the per-step fixed synchronization/IPC latency per
	// worker pair, before scaling.
	SyncBase time.Duration
	// TimeScale multiplies modeled sync durations.
	TimeScale float64
}

// DefaultParallelConfig models PCIe-attached GPUs on the paper's
// scalability machine.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{BusBps: 5e9, SyncBase: 3 * time.Millisecond, TimeScale: 0.05}
}

// NewParallel creates one engine per device. All engines share the host
// budget, the page cache, and one staging pool; each allocates its
// feature buffer on its own device.
func NewParallel(ds *graph.Dataset, devices []*device.Device, budget *hostmem.Budget,
	cache *pagecache.Cache, rec *metrics.Recorder, opts Options, pcfg ParallelConfig) (*Parallel, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	opts.fillDefaults()
	p := &Parallel{
		budget:    budget,
		busBps:    pcfg.BusBps,
		syncBase:  pcfg.SyncBase,
		timeScale: pcfg.TimeScale,
		realTrain: opts.RealTrain,
	}
	if p.timeScale == 0 {
		p.timeScale = 1
	}

	// Topology metadata pinned once for all workers.
	hostPins := ds.IndptrBytes() + int64(len(ds.Labels))*4
	if err := budget.Pin("parallel indptr+labels", hostPins); err != nil {
		return nil, err
	}
	p.pinned = hostPins

	// One shared staging pool sized for every worker's extractors; each
	// worker effectively reserves a portion and borrows beyond it (§4.3).
	slots, slotBytes := opts.StagingGeometry(int(ds.FeatBytes()))
	staging, err := NewStaging(budget, len(devices)*slots, slotBytes)
	if err != nil {
		budget.Unpin(hostPins)
		return nil, err
	}
	p.staging = staging

	// CPU-based data parallelism shares one host-resident feature buffer
	// among all workers (§4.4); GPU workers each own their device's.
	allCPU := true
	for _, dev := range devices {
		if dev.Kind() != device.CPU {
			allCPU = false
			break
		}
	}
	for w, dev := range devices {
		wopts := opts
		wopts.SharedStaging = staging
		wopts.skipHostPins = true
		wopts.Seed = opts.Seed + uint64(w)*1_000_003
		if allCPU && w > 0 {
			wopts.sharedFB = p.engines[0].fb
		}
		eng, err := New(ds, dev, budget, cache, rec, wopts)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("core: worker %d: %w", w, err)
		}
		if opts.RealTrain && w > 0 {
			eng.model.CopyParamsFrom(p.engines[0].model)
		}
		p.engines = append(p.engines, eng)
	}
	p.barrier = newStepBarrier(len(devices))
	if opts.RealTrain {
		p.gradBytes = p.engines[0].model.GradBytes()
	} else {
		// Modeled gradient volume of the paper's 3-layer models.
		p.gradBytes = int64(ds.Dim*opts.Hidden+opts.Hidden*opts.Hidden+opts.Hidden*ds.NumClasses) * 4 * 2
	}
	return p, nil
}

// Workers returns the number of data-parallel workers.
func (p *Parallel) Workers() int { return len(p.engines) }

// Close releases every worker and the shared resources.
func (p *Parallel) Close() {
	for _, e := range p.engines {
		e.Close()
	}
	p.engines = nil
	if p.staging != nil {
		p.staging.Close()
		p.staging = nil
	}
	if p.pinned > 0 {
		p.budget.Unpin(p.pinned)
		p.pinned = 0
	}
}

// allReduceTime models a ring all-reduce of the gradient payload.
func (p *Parallel) allReduceTime() time.Duration {
	w := len(p.engines)
	if w <= 1 {
		return 0
	}
	var t float64
	if p.busBps > 0 {
		t = 2 * float64(p.gradBytes) * float64(w-1) / float64(w) / p.busBps * float64(time.Second)
	}
	t += float64(p.syncBase) * float64(w-1)
	return time.Duration(t * p.timeScale)
}

// TrainEpochCtx splits the training set into equal segments (remainder
// batches dropped, as DistributedSampler does) and trains all workers
// concurrently with per-step gradient synchronization. It returns the
// wall-clock epoch time and per-worker results. A failing worker (or a
// cancelled ctx) cancels its siblings and interrupts the step barrier so
// surviving workers cannot wedge waiting for a dead peer. The error
// returned is the first one in time — the cause — not a sibling's
// context.Canceled that the cause brought about.
func (p *Parallel) TrainEpochCtx(ctx context.Context, epoch int) (time.Duration, []EpochResult, error) {
	ds := p.engines[0].ds
	bs := p.engines[0].opts.BatchSize
	w := len(p.engines)
	batchesPer := len(ds.TrainIdx) / (w * bs)
	if batchesPer == 0 {
		return 0, nil, fmt.Errorf("core: training set too small for %d workers of batch %d", w, bs)
	}
	segLen := batchesPer * bs

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p.barrier.reset()
	stopKick := context.AfterFunc(runCtx, p.barrier.interrupt)
	defer stopKick()

	results := make([]EpochResult, w)
	var first errutil.FirstError
	var wg sync.WaitGroup
	start := time.Now()
	for i, eng := range p.engines {
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			seg := ds.TrainIdx[i*segLen : (i+1)*segLen]
			var err error
			results[i], err = eng.trainEpochSegment(runCtx, epoch, seg, p.syncFn(i), 0)
			if err != nil {
				first.Set(err) // before cancel, so no sibling's Canceled can precede it
				cancel()
			}
		}(i, eng)
	}
	wg.Wait()
	return time.Since(start), results, first.Get()
}

// syncFn returns worker i's per-step gradient synchronization: a barrier,
// a (real) gradient average in real-training mode, and the modeled
// all-reduce latency.
func (p *Parallel) syncFn(i int) func(step int) {
	if len(p.engines) == 1 {
		return nil
	}
	return func(step int) {
		p.barrier.await(func() {
			if p.realTrain {
				p.averageGradients()
			}
		})
		if d := p.allReduceTime(); d > 0 {
			time.Sleep(d)
		}
	}
}

// averageGradients sums every replica's gradients and writes the average
// back to all of them. Runs on exactly one worker per step (inside the
// barrier's critical action).
func (p *Parallel) averageGradients() {
	master := p.engines[0].model.Params()
	inv := float32(1) / float32(len(p.engines))
	for pi, mp := range master {
		for _, eng := range p.engines[1:] {
			wp := eng.model.Params()[pi]
			mp.G.Add(wp.G)
		}
		mp.G.Scale(inv)
		for _, eng := range p.engines[1:] {
			wp := eng.model.Params()[pi]
			copy(wp.G.Data, mp.G.Data)
		}
	}
}

// stepBarrier is a cyclic barrier with an optional critical action run by
// the last arriver before everyone is released. interrupt permanently
// releases all current and future waiters (epoch teardown: a dead worker
// will never arrive).
type stepBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    int
	broken bool
}

func newStepBarrier(n int) *stepBarrier {
	b := &stepBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until n parties arrive; the last runs action (may be nil).
// A broken barrier releases immediately without running the action.
func (b *stepBarrier) await(action func()) {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		if action != nil {
			action()
		}
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// interrupt breaks the barrier, releasing every waiter now and forever.
func (b *stepBarrier) interrupt() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reset re-arms a broken barrier for the next epoch. Only safe while no
// worker is between epochs (TrainEpochCtx starts after the previous
// epoch's workers have all returned).
func (b *stepBarrier) reset() {
	b.mu.Lock()
	b.broken = false
	b.count = 0
	b.gen++
	b.mu.Unlock()
}
