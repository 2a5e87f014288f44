package main

// extractEngineMetrics reports what the extract stage asked of storage
// over the engine pass's steady epochs, from the engine's own breakdown.
func extractEngineMetrics(m metricSet, s engineSums) {
	m["extract.reads_per_batch"] = ratio(float64(s.reads), float64(s.batches))
	m["extract.read_amp"] = ratio(float64(s.bytesRead), float64(s.bytesNeeded))
	m["extract.kb_per_read"] = ratio(float64(s.bytesRead)/1024, float64(s.reads))
	m["extract.retries"] = float64(s.retries)
	m["extract.fallbacks"] = float64(s.fallbacks)
}
