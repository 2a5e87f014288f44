package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gnndrive/internal/core"
	"gnndrive/internal/trainsim"
)

// Demand is a job's static resource footprint, computed from its config
// alone (no dataset build): what the admission controller charges
// against the daemon's shared envelope before the job may run.
type Demand struct {
	// StagingSlots is the job's staging-pool quota: extractors x ring
	// depth in-flight reads (InOrder collapses to one extractor).
	StagingSlots int `json:"staging_slots"`
	// SlotBytes is the staging slot size the job needs — the larger of
	// the joint-read cap and one 512-aligned feature record. A job
	// whose SlotBytes exceeds the shared pool's slot size can never run.
	SlotBytes int `json:"slot_bytes"`
	// FeatureBytes is the job's feature-buffer reservation: its pinned
	// slot count times the per-node feature record.
	FeatureBytes int64 `json:"feature_bytes"`
	// FeatureSlots is the slot count behind FeatureBytes; the daemon
	// pins the engine's buffer to exactly this (Config.FeatureSlots) so
	// the engine allocates what admission accounted, nothing more.
	FeatureSlots int `json:"feature_slots"`
	// IOTokens is the job's worst-case concurrent extract reads (ring
	// depth across extractors) — its ceiling on the fair scheduler.
	IOTokens int `json:"io_tokens"`
}

// ComputeDemand prices a job config with the engine's own sizing rules
// (the options trainsim lowers the config to, core's staging geometry and
// feature-buffer working set), the estimated max-batch node count replaced
// by its analytic upper bound batch x (1 + f1 + f1*f2 + ...). The demand
// is therefore computable at admission time without touching the dataset,
// and is always >= what the engine actually needs.
func ComputeDemand(cfg trainsim.Config) Demand {
	o := cfg.EngineOptions()
	bound, layer := o.BatchSize, o.BatchSize
	for _, f := range o.Fanouts {
		layer *= f
		bound += layer
	}
	spec := cfg.Dataset
	if cfg.Dim != 0 {
		spec.Dim = cfg.Dim
	}
	featBytes := spec.Dim * 4

	fbSlots := o.AutoFeatureSlots(bound)
	if n := spec.Nodes; n > 0 && fbSlots > n {
		fbSlots = n
	}
	stagingSlots, slotBytes := o.StagingGeometry(featBytes)
	return Demand{
		StagingSlots: stagingSlots,
		SlotBytes:    slotBytes,
		FeatureBytes: int64(fbSlots) * int64(featBytes),
		FeatureSlots: fbSlots,
		IOTokens:     stagingSlots,
	}
}

// ErrOverloaded rejects a job the daemon cannot take now (HTTP 429).
var ErrOverloaded = errors.New("serve: daemon overloaded")

// ErrNeverFits rejects a job whose demand exceeds the daemon's total
// envelope — waiting cannot help.
var ErrNeverFits = fmt.Errorf("%w: job demand exceeds daemon capacity", ErrOverloaded)

// grant is one admitted job's slice of the shared envelope.
type grant struct {
	view    *core.Staging // quota view carved from the shared pool
	gate    core.IOGate   // fair-share tenant view
	demand  Demand
	pool    *pool
	id      string
	revoked bool
}

// pool is the daemon's shared resource envelope: one staging pool every
// job carves quota views from, a feature-buffer byte budget, and the
// fair-share extract scheduler. FIFO tickets keep admission ordered —
// a large queued job cannot be starved by small late arrivals.
type pool struct {
	staging *core.Staging
	sched   *FairScheduler

	mu         sync.Mutex
	cond       *sync.Cond
	featBudget int64
	featUsed   int64
	slotsTotal int
	slotsUsed  int
	queue      []*ticket // FIFO of jobs waiting for resources
	closed     bool
}

type ticket struct {
	id     string
	demand Demand
}

func newPool(stagingSlots, slotBytes int, featBudget int64, sched *FairScheduler) (*pool, error) {
	staging, err := core.NewStaging(nil, stagingSlots, slotBytes)
	if err != nil {
		return nil, err
	}
	p := &pool{
		staging:    staging,
		sched:      sched,
		featBudget: featBudget,
		slotsTotal: stagingSlots,
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.staging.Close()
}

// neverFits reports whether the demand exceeds the total envelope.
func (p *pool) neverFits(d Demand) bool {
	return d.StagingSlots > p.slotsTotal ||
		d.SlotBytes > p.staging.SlotBytes() ||
		d.FeatureBytes > p.featBudget ||
		d.IOTokens > p.sched.Capacity()
}

// fitsLocked reports whether the demand fits the free envelope now.
func (p *pool) fitsLocked(d Demand) bool {
	return p.slotsTotal-p.slotsUsed >= d.StagingSlots &&
		p.featBudget-p.featUsed >= d.FeatureBytes
}

// tryAdmit grants the demand immediately, or reports how many jobs are
// queued ahead. It never blocks: Submit uses it to decide run-now vs
// queue vs 429.
func (p *pool) tryAdmit(id string, d Demand) (*grant, int, error) {
	if p.neverFits(d) {
		return nil, 0, ErrNeverFits
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, 0, ErrOverloaded
	}
	if len(p.queue) > 0 || !p.fitsLocked(d) {
		return nil, len(p.queue), nil
	}
	g, err := p.takeLocked(id, d)
	if err != nil {
		return nil, 0, err
	}
	return g, 0, nil
}

// admit blocks until the demand fits (FIFO order) or ctx is cancelled.
func (p *pool) admit(ctx context.Context, id string, d Demand) (*grant, error) {
	if p.neverFits(d) {
		return nil, ErrNeverFits
	}
	t := &ticket{id: id, demand: d}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, t)
	defer p.dropTicketLocked(t)
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.closed {
			return nil, ErrOverloaded
		}
		if len(p.queue) > 0 && p.queue[0] == t && p.fitsLocked(d) {
			return p.takeLocked(id, d)
		}
		p.cond.Wait()
	}
}

func (p *pool) dropTicketLocked(t *ticket) {
	for i, q := range p.queue {
		if q == t {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			// The next ticket may now be at the head; let it re-check.
			p.cond.Broadcast()
			return
		}
	}
}

// takeLocked reserves the demand and carves the job's views.
func (p *pool) takeLocked(id string, d Demand) (*grant, error) {
	view, err := p.staging.Carve(d.StagingSlots)
	if err != nil {
		return nil, err
	}
	p.slotsUsed += d.StagingSlots
	p.featUsed += d.FeatureBytes
	return &grant{
		view:   view,
		gate:   p.sched.Register(id),
		demand: d,
		pool:   p,
		id:     id,
	}, nil
}

// release returns the grant's envelope slice and wakes queued jobs.
// Idempotent: a supervisor may release on several exit paths.
func (g *grant) release() {
	if g == nil {
		return
	}
	p := g.pool
	p.mu.Lock()
	if g.revoked {
		p.mu.Unlock()
		return
	}
	g.revoked = true
	p.slotsUsed -= g.demand.StagingSlots
	p.featUsed -= g.demand.FeatureBytes
	p.cond.Broadcast()
	p.mu.Unlock()
	g.view.Close()
	p.sched.Unregister(g.id)
}

// queueLen is the number of jobs waiting for resources.
func (p *pool) queueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}
