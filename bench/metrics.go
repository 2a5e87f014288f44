package main

// metricDef is one reported quantity. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base's median a change may lose (end-to-end only)
}

// endToEnd are the gated metrics, measured with tracing off. The three
// timings are in seconds at the reference machine speed: wall time divided
// by the reference kernel's index (refkernel.go), except on workloads
// whose mix is refNone. Each bound is set from the run-to-run spread
// measured on the 2-core sandbox (README.md has the table); setup_s has
// few samples a run and carries the widest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"epoch_s", "s", "lower", 0.25},
	{"cold_epoch_s", "s", "lower", 0.25},
	{"allocs_per_batch", "count", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.15},
}

// reportedOnly are measured end to end and written to the result, but
// not gated: the wall-clock medians behind the three normalised timings
// (the first three, in the order of endToEnd), the round makespan (the
// measure of serve_tenants, which the driver does not run), the median
// reference index, and alloc_kb_per_batch, which on real_inorder_ckpt
// spreads 11-22 % from run to run (sync.Pool refills after each GC cycle,
// and the number of cycles follows timing), wider than any bound it could
// usefully carry.
var reportedOnly = []metricDef{
	{Name: "setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "epoch_wall_s", Unit: "s", Better: "lower"},
	{Name: "cold_epoch_wall_s", Unit: "s", Better: "lower"},
	{Name: "makespan_s", Unit: "s", Better: "lower"},
	{Name: "ref_index", Unit: "ratio", Better: "lower"},
	{Name: "alloc_kb_per_batch", Unit: "KB", Better: "lower"},
}

// perLayer are the traced-pass metrics; they carry no bound.
var perLayer = []metricDef{
	{Name: "pipeline.sample_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.extract_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.train_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.release_busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.overlap_factor", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.critical_share", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.out_of_order", Unit: "count", Better: "higher"},

	{Name: "sample.self_us", Unit: "us", Better: "lower"},
	{Name: "graph.neighbors_us", Unit: "us", Better: "lower"},

	{Name: "pagecache.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "pagecache.faults_per_batch", Unit: "count", Better: "lower"},
	{Name: "pagecache.evictions_per_batch", Unit: "count", Better: "lower"},
	{Name: "pagecache.self_us", Unit: "us", Better: "lower"},
	{Name: "pagecache.fault_read_us", Unit: "us", Better: "lower"},

	{Name: "featbuf.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "featbuf.shared_waits_per_batch", Unit: "count", Better: "lower"},
	{Name: "featbuf.standby_waits_per_batch", Unit: "count", Better: "lower"},
	{Name: "featbuf.recycles_per_batch", Unit: "count", Better: "lower"},
	{Name: "featbuf.reserve_us", Unit: "us", Better: "lower"},
	{Name: "featbuf.markvalid_us", Unit: "us", Better: "lower"},
	{Name: "featbuf.release_us", Unit: "us", Better: "lower"},

	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "plan.ops_per_batch", Unit: "count", Better: "lower"},
	{Name: "plan.allocs_per_batch", Unit: "count", Better: "lower"},

	{Name: "extract.reads_per_batch", Unit: "count", Better: "lower"},
	{Name: "extract.read_amp", Unit: "ratio", Better: "lower"},
	{Name: "extract.kb_per_read", Unit: "KB", Better: "higher"},
	{Name: "extract.retries", Unit: "count", Better: "lower"},
	{Name: "extract.fallbacks", Unit: "count", Better: "lower"},

	{Name: "staging.acquire_us", Unit: "us", Better: "lower"},
	{Name: "staging.blocked_share", Unit: "ratio", Better: "lower"},

	{Name: "uring.submit_us", Unit: "us", Better: "lower"},
	{Name: "uring.wait_us", Unit: "us", Better: "lower"},
	{Name: "uring.flushes_per_batch", Unit: "count", Better: "lower"},

	{Name: "backend.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "backend.read_us_p99", Unit: "us", Better: "lower"},
	{Name: "backend.queue_share", Unit: "ratio", Better: "lower"},
	{Name: "backend.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "backend.direct_degraded", Unit: "count", Better: "lower"},

	{Name: "integrity.verify_us", Unit: "us", Better: "lower"},
	{Name: "integrity.verified_reads_per_batch", Unit: "count", Better: "lower"},
	{Name: "integrity.cksum_fail", Unit: "count", Better: "lower"},
	{Name: "integrity.repaired", Unit: "count", Better: "lower"},
	{Name: "integrity.hedges", Unit: "count", Better: "lower"},

	{Name: "device.copy_us", Unit: "us", Better: "lower"},
	{Name: "device.transfer_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.compute_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.mb_moved_per_epoch", Unit: "MB", Better: "lower"},

	{Name: "nn.step_us", Unit: "us", Better: "lower"},
	{Name: "nn.allocs_per_step", Unit: "count", Better: "lower"},

	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.saves_per_epoch", Unit: "count", Better: "lower"},

	{Name: "serve.admit_us", Unit: "us", Better: "lower"},
	{Name: "serve.gate_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.requeues", Unit: "count", Better: "lower"},
	{Name: "serve.tenant_epoch_ratio", Unit: "ratio", Better: "lower"},

	{Name: "replay.reads_per_batch", Unit: "count", Better: "lower"},
	{Name: "replay.featbuf_hits_per_batch", Unit: "count", Better: "higher"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one measured metric in a result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them in table order with
// the table's units; a metric a pass did not produce reads 0.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
