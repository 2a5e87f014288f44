package metrics

import "sync"

// Snapshot is a point-in-time copy of one Recorder, shaped for JSON
// export (the serve daemon's /metrics endpoint reports one per job): the
// busy/wait clocks, the cumulative Counters under their own JSON keys,
// and the read amplification derived from them (zero until the first
// batch that needed storage).
type Snapshot struct {
	CPUBusyNs int64 `json:"cpu_busy_ns"`
	IOWaitNs  int64 `json:"io_wait_ns"`
	Counters
	ReadAmplification float64 `json:"read_amplification"`
}

// Snapshot copies the recorder. Concurrent adders keep running; the
// Counters are one consistent copy, the two clocks are read beside them
// (standard monitoring semantics).
func (r *Recorder) Snapshot() Snapshot {
	c := r.Counters()
	return Snapshot{
		CPUBusyNs:         r.cpuBusy.Load(),
		IOWaitNs:          r.ioWait.Load(),
		Counters:          c,
		ReadAmplification: c.ReadAmplification(),
	}
}

// Registry hands out one Recorder per job and snapshots them all for the
// per-job metrics breakdown. Job records are never removed from a
// running daemon, so neither are their recorders.
type Registry struct {
	mu   sync.Mutex
	recs map[string]*Recorder
}

// NewRegistry returns an empty per-job recorder registry.
func NewRegistry() *Registry {
	return &Registry{recs: make(map[string]*Recorder)}
}

// Recorder returns the recorder registered under id, creating it on
// first use.
func (g *Registry) Recorder(id string) *Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.recs[id]
	if !ok {
		r = NewRecorder()
		g.recs[id] = r
	}
	return r
}

// SnapshotAll snapshots every registered recorder, keyed by id.
func (g *Registry) SnapshotAll() map[string]Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]Snapshot, len(g.recs))
	for id, r := range g.recs {
		out[id] = r.Snapshot()
	}
	return out
}
