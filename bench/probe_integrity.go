package main

// integrityEngineMetrics reports the integrity layer over the engine
// pass's steady epochs. Its time is the difference between the same
// reads timed over and under the wrapper; its counters are the engine's
// own per-epoch deltas.
func integrityEngineMetrics(m metricSet, d *rigData, a, b engineSnap, s engineSums) {
	if d.outer == nil {
		return
	}
	outer, inner := b.outer.since(a.outer), b.inner.since(a.inner)
	perRead := ratio(float64(outer.latencyNs), float64(outer.reads)) -
		ratio(float64(inner.latencyNs), float64(inner.reads))
	m["integrity.verify_us"] = perRead / 1e3
	m["integrity.verified_reads_per_batch"] = ratio(float64(s.integrity.VerifiedReads), float64(s.batches))
	m["integrity.cksum_fail"] = float64(s.integrity.ChecksumFailures)
	m["integrity.repaired"] = float64(s.integrity.Repairs)
	m["integrity.hedges"] = float64(s.integrity.HedgesIssued)
}
