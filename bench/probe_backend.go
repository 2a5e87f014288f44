package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/storage"
)

// backendProbe times reads through a storage.Backend. It is switched on
// only for traced epochs; switched off it adds one atomic load per read.
type backendProbe struct {
	on atomic.Bool

	// Asynchronous reads (the extract path): count, summed
	// submit-to-completion time, its distribution, and the in-flight
	// depth each submit saw.
	reads       atomic.Int64
	latencyNs   atomic.Int64
	hist        latencyHist
	inflight    atomic.Int64
	inflightSum atomic.Int64
	// Time in synchronous reads (page-cache faults and blocking
	// extraction).
	syncNs atomic.Int64

	wraps sync.Pool
}

// doneWrap stands in for a request's Done callback while the read is in
// flight. fn is bound once, so a recycled wrap costs no allocation.
type doneWrap struct {
	p     *backendProbe
	orig  func(*storage.Request)
	start time.Time
	fn    func(*storage.Request)
}

func (w *doneWrap) run(r *storage.Request) {
	p := w.p
	d := int64(time.Since(w.start))
	p.inflight.Add(-1)
	p.reads.Add(1)
	p.latencyNs.Add(d)
	p.hist.record(d)
	// The submitter reuses requests without rebinding Done, so the
	// original must be back in place before it runs.
	orig := w.orig
	r.Done = orig
	w.orig = nil
	p.wraps.Put(w)
	if orig != nil {
		orig(r)
	}
}

// arm interposes on req's completion.
func (p *backendProbe) arm(req *storage.Request) {
	w, _ := p.wraps.Get().(*doneWrap)
	if w == nil {
		w = &doneWrap{p: p}
		w.fn = w.run
	}
	w.orig = req.Done
	w.start = time.Now()
	req.Done = w.fn
	p.inflightSum.Add(p.inflight.Add(1))
}

func (p *backendProbe) timeSync(start time.Time) { p.syncNs.Add(int64(time.Since(start))) }

// backendCounts is a point-in-time copy of a probe's counters.
type backendCounts struct {
	reads, latencyNs, inflightSum, syncNs int64
	hist                                  []int64
}

func (p *backendProbe) counts() backendCounts {
	return backendCounts{p.reads.Load(), p.latencyNs.Load(), p.inflightSum.Load(),
		p.syncNs.Load(), p.hist.snapshot()}
}

func (a backendCounts) since(b backendCounts) backendCounts {
	return backendCounts{a.reads - b.reads, a.latencyNs - b.latencyNs, a.inflightSum - b.inflightSum,
		a.syncNs - b.syncNs, subCounts(a.hist, b.hist)}
}

// timedBackend is the decorator. Everything it does not time forwards to
// the embedded backend.
type timedBackend struct {
	storage.Backend
	p *backendProbe
}

func (t *timedBackend) Submit(req *storage.Request) {
	if t.p.on.Load() {
		t.p.arm(req)
	}
	t.Backend.Submit(req)
}

func (t *timedBackend) ReadAt(b []byte, off int64) (time.Duration, error) {
	if t.p.on.Load() {
		defer t.p.timeSync(time.Now())
	}
	return t.Backend.ReadAt(b, off)
}

func (t *timedBackend) ReadAtCtx(ctx context.Context, b []byte, off int64) (time.Duration, error) {
	if t.p.on.Load() {
		defer t.p.timeSync(time.Now())
	}
	return t.Backend.ReadAtCtx(ctx, b, off)
}

func (t *timedBackend) ReadDirect(b []byte, off int64) (time.Duration, error) {
	if t.p.on.Load() {
		defer t.p.timeSync(time.Now())
	}
	return t.Backend.ReadDirect(b, off)
}

func (t *timedBackend) ReadDirectCtx(ctx context.Context, b []byte, off int64) (time.Duration, error) {
	if t.p.on.Load() {
		defer t.p.timeSync(time.Now())
	}
	return t.Backend.ReadDirectCtx(ctx, b, off)
}

// The optional interfaces a backend may implement. The engine and the
// ring discover them by type assertion, so the decorator must offer
// exactly the set its inner backend offers — or the traced run measures
// a different program (per-read submits where the real one batches,
// unregistered buffers, no integrity counters).
type batchForward struct {
	inner storage.BatchSubmitter
	p     *backendProbe
}

func (f batchForward) SubmitBatch(reqs []*storage.Request) {
	if f.p.on.Load() {
		for _, r := range reqs {
			f.p.arm(r)
		}
	}
	f.inner.SubmitBatch(reqs)
}

type registrarForward struct{ storage.BufferRegistrar }
type integrityForward struct{ storage.IntegrityStatser }

// decorate wraps inner with p, forwarding the optional interfaces inner
// implements and no others.
func decorate(inner storage.Backend, p *backendProbe) storage.Backend {
	t := &timedBackend{inner, p}
	bs, hasBS := inner.(storage.BatchSubmitter)
	br, hasBR := inner.(storage.BufferRegistrar)
	is, hasIS := inner.(storage.IntegrityStatser)
	bf, rf, inf := batchForward{bs, p}, registrarForward{br}, integrityForward{is}
	switch {
	case hasBS && hasBR && hasIS:
		return struct {
			*timedBackend
			batchForward
			registrarForward
			integrityForward
		}{t, bf, rf, inf}
	case hasBS && hasBR:
		return struct {
			*timedBackend
			batchForward
			registrarForward
		}{t, bf, rf}
	case hasBS && hasIS:
		return struct {
			*timedBackend
			batchForward
			integrityForward
		}{t, bf, inf}
	case hasBR && hasIS:
		return struct {
			*timedBackend
			registrarForward
			integrityForward
		}{t, rf, inf}
	case hasBS:
		return struct {
			*timedBackend
			batchForward
		}{t, bf}
	case hasBR:
		return struct {
			*timedBackend
			registrarForward
		}{t, rf}
	case hasIS:
		return struct {
			*timedBackend
			integrityForward
		}{t, inf}
	}
	return t
}

// backendEngineMetrics reports the storage backend (under any integrity
// wrapper) over the engine pass's steady epochs: the latency distribution
// and queue depth the probe saw on the engine's reads, and queueing and
// degradation from the backend's own counters.
func backendEngineMetrics(m metricSet, a, b engineSnap) {
	c := b.inner.since(a.inner)
	m["backend.read_us_p50"] = histPercentile(c.hist, 50) / 1e3
	m["backend.read_us_p99"] = histPercentile(c.hist, 99) / 1e3
	m["backend.inflight_mean"] = ratio(float64(c.inflightSum), float64(c.reads))
	m["backend.queue_share"] = ratio(float64(b.dev.QueueTime-a.dev.QueueTime),
		float64(b.dev.TotalLatency-a.dev.TotalLatency))
	m["backend.direct_degraded"] = float64(b.dev.DirectDegraded - a.dev.DirectDegraded)
}
