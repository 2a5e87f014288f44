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
	// StagingSlots is the job's staging quota in core.StagingUnit
	// units: Options.StagingUnits, the pool its engine would build for
	// itself. The daemon builds the job exactly this pool.
	StagingSlots int `json:"staging_slots"`
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
// (the options trainsim lowers the config to, core's staging pool and
// feature-buffer working set), the estimated max-batch node count replaced
// by its analytic upper bound (batchNodeBound). The demand is therefore
// computable at admission time without touching the dataset: its staging
// is exactly the engine's, its feature buffer never less.
func ComputeDemand(cfg trainsim.Config) Demand {
	o := cfg.EngineOptions()
	spec := cfg.Dataset
	if cfg.Dim != 0 {
		spec.Dim = cfg.Dim
	}
	featBytes := spec.Dim * 4

	fbSlots := o.AutoFeatureSlots(batchNodeBound(o.BatchSize, o.Fanouts, spec.Nodes))
	if n := spec.Nodes; n > 0 && fbSlots > n {
		fbSlots = n
	}
	return Demand{
		StagingSlots: o.StagingUnits(featBytes),
		FeatureBytes: int64(fbSlots) * int64(featBytes),
		FeatureSlots: fbSlots,
		IOTokens:     o.ReadsInFlight(),
	}
}

// batchNodeBound is the analytic upper bound on one batch's distinct nodes,
// batch x (1 + f1 + f1*f2 + ...), saturated at the graph's nodes: no batch
// holds more, and saturating every term keeps a huge batch size or fanout
// from overflowing into a zero or negative slot count (which the engine
// would read as "auto-size", outside the admitted envelope).
func batchNodeBound(batch int, fanouts []int, nodes int) int {
	bound := min(batch, nodes)
	layer := bound
	for _, f := range fanouts {
		if f > 0 && layer > nodes/f {
			layer = nodes
		} else {
			layer *= f
		}
		bound = min(bound+layer, nodes)
	}
	return bound
}

// ErrOverloaded rejects a job the daemon cannot take now (HTTP 429).
var ErrOverloaded = errors.New("serve: daemon overloaded")

// ErrNeverFits rejects a job whose demand exceeds the daemon's total
// envelope — waiting cannot help.
var ErrNeverFits = fmt.Errorf("%w: job demand exceeds daemon capacity", ErrOverloaded)

// grant is one admitted job's slice of the shared envelope.
type grant struct {
	staging *core.Staging // the job's own pool of its StagingSlots units
	gate    core.IOGate   // fair-share tenant view
	demand  Demand
	pool    *pool
	id      string
	revoked bool
}

// pool is the daemon's shared resource envelope: a budget of
// core.StagingUnit staging units, each admitted job holding a pool of
// its own charged against it, a feature-buffer byte budget, and the
// fair-share extract scheduler. FIFO tickets keep admission ordered — a
// large queued job cannot be starved by small late arrivals.
type pool struct {
	sched *FairScheduler

	mu         sync.Mutex
	cond       *sync.Cond
	slots      int // staging units in the envelope
	slotsUsed  int // staging units granted
	featBudget int64
	featUsed   int64
	queue      []*ticket // FIFO of jobs waiting for resources
	closed     bool
}

type ticket struct {
	id     string
	demand Demand
}

// newPool builds the envelope of a filled cfg: its staging bytes in
// whole units, and its feature budget.
func newPool(cfg Config, sched *FairScheduler) *pool {
	p := &pool{
		sched:      sched,
		slots:      cfg.StagingSlots * cfg.SlotBytes / core.StagingUnit,
		featBudget: cfg.FeatureBudgetBytes,
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// neverFits reports whether the demand exceeds the total envelope.
func (p *pool) neverFits(d Demand) bool {
	return d.StagingSlots > p.slots ||
		d.FeatureBytes > p.featBudget ||
		d.IOTokens > p.sched.Capacity()
}

// fitsLocked reports whether the demand fits the free envelope now.
func (p *pool) fitsLocked(d Demand) bool {
	return p.slots-p.slotsUsed >= d.StagingSlots &&
		p.featBudget-p.featUsed >= d.FeatureBytes
}

// tryAdmit grants the demand immediately, or returns a nil grant when
// the job must queue. It never blocks: Submit uses it to decide run-now
// vs queue vs 429.
func (p *pool) tryAdmit(id string, d Demand) (*grant, error) {
	if p.neverFits(d) {
		return nil, ErrNeverFits
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrOverloaded
	}
	if len(p.queue) > 0 || !p.fitsLocked(d) {
		return nil, nil
	}
	return p.takeLocked(id, d)
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

// takeLocked reserves the demand and builds the job's staging pool.
func (p *pool) takeLocked(id string, d Demand) (*grant, error) {
	staging, err := core.NewStaging(nil, d.StagingSlots, core.StagingUnit)
	if err != nil {
		return nil, err
	}
	p.slotsUsed += d.StagingSlots
	p.featUsed += d.FeatureBytes
	return &grant{
		staging: staging,
		gate:    p.sched.Register(id),
		demand:  d,
		pool:    p,
		id:      id,
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
	g.staging.Close()
	p.sched.Unregister(g.id)
}

// queueLen is the number of jobs waiting for resources.
func (p *pool) queueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}
