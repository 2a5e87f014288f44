package main

import "gnndrive/internal/pagecache"

// pagecacheEngineMetrics reports the page cache's own counters over the
// engine pass's steady epochs. (Its time is measured in the replay pass,
// see sampleMetrics.)
func pagecacheEngineMetrics(m metricSet, a, b pagecache.Stats, batches float64) {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	m["pagecache.hit_rate"] = ratio(hits, hits+misses)
	m["pagecache.faults_per_batch"] = ratio(misses, batches)
	m["pagecache.evictions_per_batch"] = ratio(float64(b.Evictions-a.Evictions), batches)
}
