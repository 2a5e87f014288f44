package main

import (
	"time"

	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// neighborProbe times every neighbor read the sampler makes. There are
// thousands per batch, so they are summed, not recorded as spans. The
// replay is serial, so plain counters do.
type neighborProbe struct {
	inner graph.NeighborReader
	calls int64
	ns    int64
}

func (p *neighborProbe) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	t0 := time.Now()
	ns, waited, err := p.inner.Neighbors(v, buf)
	p.ns += int64(time.Since(t0))
	p.calls++
	return ns, waited, err
}

func (r *replay) initSample() {
	ds := r.d.ds
	r.reader = &neighborProbe{inner: graph.NewCachedReader(ds, r.cache, graph.IndicesFile(ds, r.cache))}
	r.sampler = sample.New(r.reader, r.opts.Fanouts, tensor.NewRNG(r.opts.Seed))
}

// sampleStep samples batch i exactly as the engine's sample stage does:
// the per-batch seed makes the neighborhood a pure function of (seed,
// epoch, batch).
func (r *replay) sampleStep(parent spanID, epoch, i int, targets []int64) (*sample.Batch, error) {
	calls, ns := r.reader.calls, r.reader.ns
	id := r.rec.begin(spanSample, parent, i)
	r.sampler.Reseed(sample.BatchSeed(r.opts.Seed, epoch, i))
	_, err := r.sampler.SampleBatchInto(&r.batch, i, targets)
	r.rec.cover(id, time.Duration(r.reader.ns-ns), r.reader.calls-calls)
	r.rec.end(id)
	return &r.batch, err
}

// sampleMetrics reports the sample and topology-read layers. graph's
// CachedReader calls pagecache.File directly — a concrete type the
// benchmark cannot decorate — so the split below is at the two seams it
// can reach: the NeighborReader above the cache and the backend under
// it. pagecache.self_us therefore includes CachedReader's decode loop.
func (r *replay) sampleMetrics(m metricSet, perBatchUs func(string) float64, mk replayMark, batches float64) {
	neighborsUs := ratio(float64(r.reader.ns)/1e3, batches)
	faults := r.d.inner.counts().since(mk.inner)
	faultUs := ratio(float64(faults.syncNs)/1e3, batches)
	m["sample.self_us"] = perBatchUs(spanSample)
	m["graph.neighbors_us"] = neighborsUs
	m["pagecache.fault_read_us"] = faultUs
	m["pagecache.self_us"] = neighborsUs - faultUs
}
