package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/storage"
	"gnndrive/internal/trainsim"
)

// gateProbe times a tenant's waits on the daemon's fair-share I/O gate.
type gateProbe struct {
	inner  core.IOGate
	waitNs atomic.Int64
}

func (g *gateProbe) Acquire(ctx context.Context, n int) error {
	t0 := time.Now()
	err := g.inner.Acquire(ctx, n)
	g.waitNs.Add(int64(time.Since(t0)))
	return err
}

func (g *gateProbe) TryAcquire(n int) bool { return g.inner.TryAcquire(n) }

func (g *gateProbe) Release(n int) { g.inner.Release(n) }

// tenantSnap is what the probe can read of one tenant's engine at an
// epoch boundary: its feature buffer (through OnEngine) and its dataset
// backend's counters (through the harness's dataset cache).
type tenantSnap struct {
	fb  core.FeatureBufferStats
	dev storage.Stats
}

type tenantProbe struct {
	cfg   trainsim.Config
	fb    *core.FeatureBuffer
	gate  *gateProbe
	poll  *stagingPoll
	snaps []tenantSnap // after each epoch
}

// serveProbe observes every tenant of a traced daemon run through the
// one seam the daemon offers, serve.Config.Hook: it wraps the job's
// IOGate, watches its staging quota view, and chains onto its OnEngine
// and OnEpoch callbacks. The daemon builds each job's backend and engine
// inside the harness, so the tracer and the backend decorator cannot be
// installed here; what they would have measured comes from the harness's
// own epoch stats and from the replay pass.
type serveProbe struct {
	mu      sync.Mutex
	tenants []*tenantProbe
}

func newServeProbe(n int) *serveProbe {
	p := &serveProbe{tenants: make([]*tenantProbe, n)}
	for i := range p.tenants {
		p.tenants[i] = &tenantProbe{}
	}
	return p
}

func (p *serveProbe) tap(i int, cfg *trainsim.Config) {
	tp := p.tenants[i]
	tp.gate = &gateProbe{inner: cfg.IOGate}
	cfg.IOGate = tp.gate
	tp.poll = watchStaging(cfg.SharedStaging)
	onEngine, onEpoch := cfg.OnEngine, cfg.OnEpoch
	cfg.OnEngine = func(e *core.Engine) {
		p.mu.Lock()
		tp.fb = e.FeatureBuffer()
		p.mu.Unlock()
		onEngine(e)
	}
	key := *cfg // the dataset cell this job reads, for DeviceStats
	cfg.OnEpoch = func(e int, st trainsim.EpochStats) {
		s := tenantSnap{dev: trainsim.DeviceStats(key)}
		p.mu.Lock()
		if tp.fb != nil {
			s.fb = tp.fb.Stats()
		}
		tp.snaps = append(tp.snaps, s)
		p.mu.Unlock()
		onEpoch(e, st)
	}
}

// metrics fills the engine-sourced metrics of a traced daemon run.
func (p *serveProbe) metrics(m metricSet, out *serveOutcome) {
	var (
		epochs, batches               float64
		sample, extract, train, total time.Duration
		overlap, critical             float64
		reads, bytesRead, bytesNeeded int64
		retries, fallbacks            int64
		fbA, fbB                      core.FeatureBufferStats
		devA, devB                    storage.Stats
		blocked, gateMs               float64
		requeues                      int
		tenantMedians                 []float64
		admit, queue                  []float64
	)
	for i, eps := range out.epochs {
		var steady []float64
		for e, st := range eps {
			if e == 0 {
				continue
			}
			epochs++
			batches += float64(st.Batches)
			sample, extract, train, total = sample+st.Sample, extract+st.Extract, train+st.Train, total+st.Total
			overlap += ratio(float64(st.Sample+st.Extract+st.Train), float64(st.Total))
			critical += ratio(float64(max(st.Sample, st.Extract, st.Train)), float64(st.Total))
			reads, bytesRead, bytesNeeded = reads+st.BackendReads, bytesRead+st.BytesRead, bytesNeeded+st.BytesNeeded
			retries, fallbacks = retries+st.Retries, fallbacks+st.Fallbacks
			steady = append(steady, st.Total.Seconds())
		}
		tenantMedians = append(tenantMedians, median(steady))
		tp := p.tenants[i]
		if n := len(tp.snaps); n >= 2 {
			a, b := tp.snaps[0], tp.snaps[n-1]
			fbA, fbB = addFB(fbA, a.fb), addFB(fbB, b.fb)
			devA, devB = addDev(devA, a.dev), addDev(devB, b.dev)
		}
		blocked += tp.poll.stop()
		if tp.gate != nil {
			gateMs += float64(tp.gate.waitNs.Load()) / 1e6
		}
		requeues += out.records[i].Requeues
		admit = append(admit, float64(out.admit[i])/1e3)
		queue = append(queue, float64(out.queueWait[i])/1e6)
	}
	n := float64(len(out.epochs))
	m["pipeline.sample_busy_s"] = ratio(sample.Seconds(), epochs)
	m["pipeline.extract_busy_s"] = ratio(extract.Seconds(), epochs)
	m["pipeline.train_busy_s"] = ratio(train.Seconds(), epochs)
	m["pipeline.overlap_factor"] = ratio(overlap, epochs)
	m["pipeline.critical_share"] = ratio(critical, epochs)
	m["device.compute_busy_s"] = ratio(train.Seconds(), epochs)
	featbufEngineMetrics(m, fbA, fbB, batches)
	extractEngineMetrics(m, engineSums{batches: int(batches), reads: reads, bytesRead: bytesRead,
		bytesNeeded: bytesNeeded, retries: retries, fallbacks: fallbacks})
	m["backend.queue_share"] = ratio(float64(devB.QueueTime-devA.QueueTime), float64(devB.TotalLatency-devA.TotalLatency))
	// Little's law on the backends' own counters: summed read latency
	// over the wall time it accrued in.
	m["backend.inflight_mean"] = ratio(float64(devB.TotalLatency-devA.TotalLatency), float64(total))
	m["backend.direct_degraded"] = float64(devB.DirectDegraded - devA.DirectDegraded)
	m["staging.blocked_share"] = ratio(blocked, n)
	m["serve.admit_us"] = mean(admit)
	m["serve.queue_wait_ms"] = mean(queue)
	m["serve.gate_wait_ms"] = ratio(gateMs, n)
	m["serve.requeues"] = float64(requeues)
	if len(tenantMedians) > 0 {
		m["serve.tenant_epoch_ratio"] = ratio(slices.Max(tenantMedians), slices.Min(tenantMedians))
	}
}

func addFB(a, b core.FeatureBufferStats) core.FeatureBufferStats {
	a.ReuseHits += b.ReuseHits
	a.Loads += b.Loads
	a.SharedWaits += b.SharedWaits
	a.SlotRecycles += b.SlotRecycles
	a.StandbyWaits += b.StandbyWaits
	return a
}

func addDev(a, b storage.Stats) storage.Stats {
	a.QueueTime += b.QueueTime
	a.TotalLatency += b.TotalLatency
	a.DirectDegraded += b.DirectDegraded
	return a
}
