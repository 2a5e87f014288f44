package main

import (
	"gnndrive/internal/core"
	"gnndrive/internal/sample"
)

// featbufEngineMetrics reports feature-buffer reuse over the engine
// pass's steady epochs, where extractors really race for slots.
func featbufEngineMetrics(m metricSet, a, b core.FeatureBufferStats, batches float64) {
	hits := float64(b.ReuseHits - a.ReuseHits)
	loads := float64(b.Loads - a.Loads)
	waits := float64(b.SharedWaits - a.SharedWaits)
	m["featbuf.hit_rate"] = ratio(hits, hits+loads+waits)
	m["featbuf.shared_waits_per_batch"] = ratio(waits, batches)
	m["featbuf.standby_waits_per_batch"] = ratio(float64(b.StandbyWaits-a.StandbyWaits), batches)
	m["featbuf.recycles_per_batch"] = ratio(float64(b.SlotRecycles-a.SlotRecycles), batches)
}

func (r *replay) reserveStep(parent spanID, i int, b *sample.Batch) (*core.Reservation, error) {
	id := r.rec.begin(spanReserve, parent, i)
	res, err := r.fb.ReserveCtx(r.ctx, b.Nodes)
	r.rec.end(id)
	return res, err
}

func (r *replay) releaseStep(parent spanID, i int, b *sample.Batch, res *core.Reservation) {
	id := r.rec.begin(spanRelease, parent, i)
	r.fb.Release(b.Nodes)
	r.rec.end(id)
	core.PutReservation(res)
}

func (r *replay) featbufMetrics(m metricSet, perBatchUs func(string) float64, mk replayMark, batches float64) {
	m["featbuf.reserve_us"] = perBatchUs(spanReserve)
	m["featbuf.release_us"] = perBatchUs(spanRelease)
	m["featbuf.markvalid_us"] = ratio(float64(r.markValidNs.Load())/1e3, batches)
	m["replay.featbuf_hits_per_batch"] = ratio(float64(r.fb.Stats().ReuseHits-mk.fb.ReuseHits), batches)
}
