package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/core"
	"gnndrive/internal/errutil"
	"gnndrive/internal/metrics"
	"gnndrive/internal/trainsim"
)

// Config configures a Daemon. StateDir and BaseContext are required;
// zero resource fields take defaults sized for a handful of concurrent
// scaled jobs.
type Config struct {
	// BaseContext is the daemon's lifecycle: cancelling it hard-stops
	// every job (Drain is the graceful path). Required — the daemon
	// never invents its own root context.
	BaseContext context.Context
	// StateDir holds the job manifest and per-job scratch (checkpoints,
	// backing files). A restarted daemon pointed at the same StateDir
	// re-admits every non-terminal job and resumes it from its newest
	// checkpoint.
	StateDir string

	// StagingSlots x SlotBytes is the staging envelope in bytes, counted
	// in whole core.StagingUnit units (defaults 6144 x StagingUnit:
	// 3 MiB): the admitted jobs' own staging pools sum to at most this.
	StagingSlots int
	// SlotBytes only multiplies StagingSlots into that byte size. It
	// stays only because the benchmark's serve workload still sets it
	// (384 x 16 KiB); it and StagingSlots fold into one byte field
	// together.
	SlotBytes int
	// FeatureBudgetBytes bounds the summed feature-buffer reservations
	// of admitted jobs (default 64 MiB).
	FeatureBudgetBytes int64
	// IOTokens is the fair-share extract scheduler's permit pool
	// (default 128): total in-flight extract reads across all jobs.
	IOTokens int

	// MaxQueued bounds jobs waiting for resources; a submit beyond it
	// is rejected with ErrOverloaded (HTTP 429). Negative disables
	// queueing entirely. Default 8.
	MaxQueued int
	// MaxRequeues is how many times the supervisor restarts a faulting
	// or stalled job before marking it failed (default 2; negative 0).
	// Restarts back off on the errutil schedule from 100µs, capped at
	// 10ms, so all requeues together wait tens of milliseconds at most.
	MaxRequeues int
	// DrainGrace is how long Drain waits for requested checkpoints
	// before cancelling jobs (default 10s).
	DrainGrace time.Duration
	// StallDeadline arms each job's pipeline watchdog unless its spec
	// sets one (default 30s; negative disables).
	StallDeadline time.Duration

	// Hook, when non-nil, edits each job's harness config just before a
	// run attempt starts (fault injection in chaos tests, site-local
	// backend overrides in ops).
	Hook func(id string, cfg *trainsim.Config)
	// Logf receives daemon diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.BaseContext == nil {
		return errors.New("serve: Config.BaseContext is required")
	}
	if c.StateDir == "" {
		return errors.New("serve: Config.StateDir is required")
	}
	if c.StagingSlots == 0 {
		c.StagingSlots = 6144
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = core.StagingUnit
	}
	if c.StagingSlots*c.SlotBytes < core.StagingUnit {
		return fmt.Errorf("serve: staging envelope of %d x %d bytes holds no %d-byte unit",
			c.StagingSlots, c.SlotBytes, core.StagingUnit)
	}
	if c.FeatureBudgetBytes == 0 {
		c.FeatureBudgetBytes = 64 << 20
	}
	if c.IOTokens == 0 {
		c.IOTokens = 128
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 8
	} else if c.MaxQueued < 0 {
		c.MaxQueued = 0
	}
	if c.MaxRequeues < 0 {
		c.MaxRequeues = 0
	} else if c.MaxRequeues == 0 {
		c.MaxRequeues = 2
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.StallDeadline == 0 {
		c.StallDeadline = 30 * time.Second
	} else if c.StallDeadline < 0 {
		c.StallDeadline = 0
	}
	return nil
}

// ErrBadSpec rejects an invalid or non-resumable job spec (HTTP 400).
var ErrBadSpec = errors.New("serve: bad job spec")

// ErrUnknownJob reports an id the daemon has no record of (HTTP 404).
var ErrUnknownJob = errors.New("serve: unknown job")

// job is one tracked job's live state. The record is guarded by the
// daemon mutex; ctx/cancel are set once, before the job is published, and
// only on a job that runs (a restored terminal job has none).
type job struct {
	rec    JobRecord
	ctx    context.Context
	cancel context.CancelFunc

	// eng and runDone are valid for the current run attempt (daemon
	// mutex): the drain path requests checkpoints through eng and
	// stops waiting when runDone closes.
	eng     *core.Engine
	runDone chan struct{}

	// granted marks a job Submit admitted with a grant that runJob has
	// not yet marked running (daemon mutex): it is queued in state only,
	// and does not count against MaxQueued.
	granted bool

	userCancelled bool
}

// Daemon is the multi-tenant training server.
type Daemon struct {
	cfg   Config
	sched *FairScheduler
	pool  *pool
	store *jobStore
	reg   *metrics.Registry

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // broadcast on any job state change
	jobs     map[string]*job
	nextSeq  int
	draining bool

	saveMu sync.Mutex // serializes manifest writes
}

// NewDaemon builds a daemon over cfg.StateDir, re-admitting every
// non-terminal job found in the manifest (in original submit order)
// with resume-from-checkpoint semantics.
func NewDaemon(cfg Config) (*Daemon, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	sched, err := NewFairScheduler(cfg.IOTokens)
	if err != nil {
		return nil, err
	}
	p := newPool(cfg, sched)
	store, err := newJobStore(cfg.StateDir)
	if err != nil {
		p.close()
		return nil, err
	}
	m, err := store.load()
	if err != nil {
		p.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(cfg.BaseContext)
	d := &Daemon{
		cfg:        cfg,
		sched:      sched,
		pool:       p,
		store:      store,
		reg:        metrics.NewRegistry(),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*job),
		nextSeq:    m.NextSeq,
	}
	d.cond = sync.NewCond(&d.mu)
	// Re-admit survivors strictly in submit order so the restarted
	// daemon's admission queue matches the drained one's. The lock is
	// held across the loop: a job started here persists the manifest,
	// which walks d.jobs, while later records are still being inserted.
	d.mu.Lock()
	for _, rec := range m.Jobs {
		j := &job{rec: *rec}
		d.jobs[j.rec.ID] = j
		if rec.State.Terminal() {
			continue // never runs again, so it needs no context
		}
		// Re-price from the spec: a persisted demand may be in another
		// daemon version's units. The persist below records the new one.
		if cfg, _, err := d.lowerSpec(rec.Spec); err == nil {
			j.rec.Demand = ComputeDemand(cfg)
		}
		j.ctx, j.cancel = context.WithCancel(d.rootCtx)
		j.rec.State = StateQueued
		j.rec.Error = ""
		d.wg.Add(1)
		go d.runJob(j, nil)
	}
	d.mu.Unlock()
	d.persist()
	return d, nil
}

// Submit validates, prices, and admits a job, returning its id. A job
// that fits now starts immediately; one that fits eventually queues
// FIFO; one beyond the queue bound or the daemon's whole envelope gets
// ErrOverloaded.
func (d *Daemon) Submit(spec trainsim.JobSpec) (string, error) {
	cfg, _, err := d.lowerSpec(spec)
	if err != nil {
		return "", err
	}
	demand := ComputeDemand(cfg)

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return "", fmt.Errorf("%w: daemon is draining", ErrOverloaded)
	}
	seq := d.nextSeq
	d.nextSeq++
	id := fmt.Sprintf("job-%04d", seq)
	j := &job{rec: JobRecord{ID: id, Seq: seq, Spec: spec, Demand: demand, State: StateQueued}}

	g, aerr := d.pool.tryAdmit(id, demand)
	if aerr != nil {
		d.nextSeq-- // the job never existed
		d.mu.Unlock()
		return "", aerr
	}
	if g == nil {
		// Must wait. Count live jobs waiting for a grant against the
		// bound (pool tickets lag Submit by a goroutine hop, so count
		// records).
		waiting := 0
		for _, other := range d.jobs {
			if other.rec.State == StateQueued && !other.granted {
				waiting++
			}
		}
		if waiting >= d.cfg.MaxQueued {
			d.nextSeq--
			d.mu.Unlock()
			return "", fmt.Errorf("%w: %d jobs already queued", ErrOverloaded, waiting)
		}
	}
	// Only an accepted job gets a context: a rejected one would stay a
	// child of rootCtx until Close.
	j.ctx, j.cancel = context.WithCancel(d.rootCtx)
	j.granted = g != nil
	d.jobs[id] = j
	d.wg.Add(1)
	d.mu.Unlock()

	d.persist()
	go d.runJob(j, g)
	return id, nil
}

// lowerSpec turns a JobSpec into the harness config the daemon will
// run, enforcing the daemon's resumability contract: GNNDrive systems
// only, real training, in-order pipeline (the combination under which
// checkpoint cursors are exact and trajectories deterministic).
func (d *Daemon) lowerSpec(spec trainsim.JobSpec) (trainsim.Config, trainsim.SystemKind, error) {
	sys, err := trainsim.SystemByName(spec.System)
	if err != nil {
		return trainsim.Config{}, 0, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if sys != trainsim.GNNDriveGPU && sys != trainsim.GNNDriveCPU {
		return trainsim.Config{}, 0, fmt.Errorf("%w: system %q is not resumable; the daemon only runs GNNDrive systems", ErrBadSpec, spec.System)
	}
	cfg, err := spec.Config()
	if err != nil {
		return trainsim.Config{}, 0, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	cfg.RealTrain = true
	cfg.InOrder = true
	if cfg.StallDeadline == 0 {
		cfg.StallDeadline = d.cfg.StallDeadline
	}
	return cfg, sys, nil
}

// buildConfig finishes a job's config with its per-job paths and its
// slice of the shared envelope.
func (d *Daemon) buildConfig(j *job, g *grant) (trainsim.Config, trainsim.SystemKind, error) {
	cfg, sys, err := d.lowerSpec(j.rec.Spec)
	if err != nil {
		return cfg, sys, err
	}
	// The file and linuring backends open DataFile before anything else
	// writes under the job's directory, so it must exist from here on.
	dir := d.store.jobDir(j.rec.ID)
	if err := checkpoint.MkdirAll(checkpoint.OSSink{}, dir); err != nil {
		return cfg, sys, fmt.Errorf("serve: job dir: %w", err)
	}
	cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	// DataFile keys the dataset cache even for the sim backend, so two
	// jobs over the same dataset spec never share a backend (and never
	// see each other's fault injectors).
	cfg.DataFile = filepath.Join(dir, "data.img")
	cfg.Resume = true
	cfg.FeatureSlots = g.demand.FeatureSlots
	cfg.SharedStaging = g.staging
	cfg.IOGate = g.gate
	cfg.Rec = d.reg.Recorder(j.rec.ID)
	cfg.Logf = func(format string, args ...any) {
		d.logf("serve: job %s: %s", j.rec.ID, fmt.Sprintf(format, args...))
	}
	cfg.OnEpoch = func(epoch int, st trainsim.EpochStats) {
		d.recordEpoch(j, epoch, st)
	}
	cfg.OnEngine = func(e *core.Engine) {
		d.mu.Lock()
		j.eng = e
		d.mu.Unlock()
	}
	if d.cfg.Hook != nil {
		d.cfg.Hook(j.rec.ID, &cfg)
	}
	return cfg, sys, nil
}

// runJob is one job's supervisor: admit (or re-admit), run, and on
// faults release the job's resources, back off, and requeue — up to
// MaxRequeues — without ever touching another job's slice.
func (d *Daemon) runJob(j *job, g *grant) {
	defer d.wg.Done()
	defer j.cancel()
	var cfg trainsim.Config // the latest run attempt's
	defer func() {
		if g != nil {
			g.release()
		}
		// A terminal job's dataset cell is never read again: evict it, so
		// a cancelled or failed job does not pin its backend (memory, and
		// the sim device's goroutines) for the daemon's lifetime. An
		// interrupted job keeps its cell for an in-process resume.
		d.mu.Lock()
		terminal := j.rec.State.Terminal()
		d.mu.Unlock()
		if terminal && cfg.DataFile != "" {
			trainsim.DropDataset(cfg)
		}
	}()
	for {
		if g == nil {
			var err error
			g, err = d.pool.admit(j.ctx, j.rec.ID, j.rec.Demand)
			if err != nil {
				d.exitInterrupted(j, err)
				return
			}
		}
		runDone := make(chan struct{})
		d.setState(j, StateRunning, func() { j.runDone, j.granted = runDone, false })

		var sys trainsim.SystemKind
		var err error
		cfg, sys, err = d.buildConfig(j, g)
		if err == nil {
			_, err = trainsim.RunCtx(j.ctx, cfg, sys,
				trainsim.RunOptions{Epochs: j.rec.Spec.NumEpochs()})
		}
		d.mu.Lock()
		j.eng = nil
		d.mu.Unlock()
		close(runDone)

		switch {
		case err == nil:
			g.release()
			g = nil
			d.setState(j, StateCompleted, nil)
			return
		case j.ctx.Err() != nil:
			d.exitInterrupted(j, err)
			return
		}

		// Fault path: the error is the job's own (stall, storage
		// escalation, checkpoint failure) — requeue with backoff.
		d.mu.Lock()
		j.rec.Requeues++
		requeues := j.rec.Requeues
		d.mu.Unlock()
		if requeues > d.cfg.MaxRequeues {
			d.setState(j, StateFailed, func() { j.rec.Error = err.Error() })
			g.release()
			g = nil
			return
		}
		d.logf("serve: job %s fault (requeue %d/%d): %v", j.rec.ID, requeues, d.cfg.MaxRequeues, err)
		// Free the job's envelope slice during backoff so waiting jobs
		// can run; re-admission queues FIFO like any other job.
		g.release()
		g = nil
		d.setState(j, StateBackoff, func() { j.rec.Error = err.Error() })
		if serr := errutil.Sleep(j.ctx, errutil.Policy{}.Delay(requeues)); serr != nil {
			d.exitInterrupted(j, serr)
			return
		}
		d.setState(j, StateQueued, nil)
	}
}

// exitInterrupted records why a cancelled job stopped: a drain leaves
// it resumable (Interrupted), a user cancel is terminal.
func (d *Daemon) exitInterrupted(j *job, err error) {
	d.mu.Lock()
	draining := d.draining
	user := j.userCancelled
	d.mu.Unlock()
	switch {
	case user:
		d.setState(j, StateCancelled, nil)
	case draining:
		d.setState(j, StateInterrupted, nil)
	default:
		// BaseContext died without a drain: still resumable.
		d.setState(j, StateInterrupted, func() {
			if err != nil {
				j.rec.Error = err.Error()
			}
		})
	}
}

// recordEpoch appends one finished epoch to the job record (replacing a
// stale partial entry for the same epoch after a resume) and persists.
func (d *Daemon) recordEpoch(j *job, epoch int, st trainsim.EpochStats) {
	rec := epochRecord(epoch, st)
	d.mu.Lock()
	replaced := false
	for i := range j.rec.Epochs {
		if j.rec.Epochs[i].Epoch == epoch {
			j.rec.Epochs[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		j.rec.Epochs = append(j.rec.Epochs, rec)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	d.persist()
}

// setState transitions a job, runs extra under the daemon lock, wakes
// waiters, and persists.
func (d *Daemon) setState(j *job, st JobState, extra func()) {
	d.mu.Lock()
	j.rec.State = st
	if st == StateRunning || st == StateCompleted {
		j.rec.Error = ""
	}
	if extra != nil {
		extra()
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	d.persist()
}

// Job returns a copy of the job's record.
func (d *Daemon) Job(id string) (JobRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.rec, nil
}

// Jobs returns copies of every job record in submit order.
func (d *Daemon) Jobs() []JobRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobRecord, 0, len(d.jobs))
	for _, j := range d.jobs {
		out = append(out, j.rec)
	}
	slices.SortFunc(out, func(a, b JobRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Cancel stops a job (terminal). Queued jobs leave the queue; running
// jobs are cancelled between batches.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.rec.State.Terminal() {
		d.mu.Unlock()
		return nil
	}
	j.userCancelled = true
	d.mu.Unlock()
	j.cancel()
	return nil
}

// WaitJob blocks until the job reaches a terminal state (or, during a
// drain, Interrupted) and returns its record.
func (d *Daemon) WaitJob(ctx context.Context, id string) (JobRecord, error) {
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		j, ok := d.jobs[id]
		if !ok {
			return JobRecord{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
		}
		if j.rec.State.Terminal() || j.rec.State == StateInterrupted {
			return j.rec, nil
		}
		if err := ctx.Err(); err != nil {
			return j.rec, err
		}
		d.cond.Wait()
	}
}

// Drain gracefully shuts the daemon down: every running job is asked
// for an on-demand checkpoint, all of them together are given until ctx
// or the configured grace expires, then cancelled; each job persists
// its Interrupted state, so a new daemon over the same StateDir resumes
// each job from exactly the committed cursor. Drain is terminal — the
// daemon accepts nothing afterwards.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.draining = true
	type pending struct {
		done    <-chan struct{}
		runDone chan struct{}
	}
	var waits []pending
	for _, j := range d.jobs {
		if j.rec.State == StateRunning && j.eng != nil {
			waits = append(waits, pending{j.eng.RequestCheckpoint(), j.runDone})
		}
	}
	d.mu.Unlock()

	// One grace period bounds every wait, not each job's in turn.
	grace, cancel := context.WithTimeout(ctx, d.cfg.DrainGrace)
	defer cancel()
	for _, w := range waits {
		select {
		case <-w.done:
		case <-w.runDone: // the run ended on its own; nothing to wait for
		case <-grace.Done():
		}
	}

	// Every job's supervisor persisted its last state change before
	// wg.Done — a queued or backing-off job's Interrupted too — so the
	// manifest on disk is already final.
	d.rootCancel()
	d.wg.Wait()
	d.pool.close()
	d.sched.Close()
	return ctx.Err()
}

// Close hard-stops the daemon: cancel everything and wait; each job
// persists its own final state. Jobs die mid-epoch and resume from their
// last committed checkpoint; use Drain for the graceful,
// checkpoint-first path.
func (d *Daemon) Close() {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.mu.Unlock()
	d.rootCancel()
	d.wg.Wait()
	if !already {
		d.pool.close()
		d.sched.Close()
	}
}

// persist snapshots all records under the daemon lock and writes the
// manifest outside it. saveMu is held across both, so manifests are
// written in the order they were snapshot: the last write is the newest
// state, and a job's final persist is never overwritten by an older
// snapshot.
func (d *Daemon) persist() {
	d.saveMu.Lock()
	defer d.saveMu.Unlock()
	d.mu.Lock()
	m := manifest{NextSeq: d.nextSeq}
	for _, j := range d.jobs {
		rec := j.rec
		m.Jobs = append(m.Jobs, &rec)
	}
	d.mu.Unlock()
	if err := d.store.save(m); err != nil {
		d.logf("serve: manifest save failed: %v", err)
	}
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}
