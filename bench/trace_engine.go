package main

import (
	"context"
	"fmt"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
	"gnndrive/internal/trace"
)

// engineSnap is every cumulative counter the engine pass reads, taken at
// an epoch boundary; metrics are differences between two snaps.
type engineSnap struct {
	fb           core.FeatureBufferStats
	pc           pagecache.Stats
	dev          storage.Stats
	inner, outer backendCounts
	xferBusy     time.Duration
	computeBusy  time.Duration
	moved        int64
}

func (r *engineRound) snap(d *rigData) engineSnap {
	s := engineSnap{
		fb:          r.eng.FeatureBuffer().Stats(),
		pc:          r.cache.Stats(),
		dev:         d.ds.Dev.Stats(),
		inner:       d.inner.counts(),
		xferBusy:    r.dev.TransferBusy(),
		computeBusy: r.dev.ComputeBusy(),
		moved:       r.dev.BytesMoved(),
	}
	if d.outer != nil {
		s.outer = d.outer.counts()
	}
	return s
}

// engineSums adds up the per-epoch results of the steady epochs.
type engineSums struct {
	epochs, batches               int
	reads, bytesRead, bytesNeeded int64
	retries, fallbacks            int64
	integrity                     storage.IntegrityStats
	wall                          time.Duration
}

func (s *engineSums) add(r core.EpochResult) {
	s.epochs++
	s.batches += r.Batches
	s.reads += r.BackendReads
	s.bytesRead += r.BytesRead
	s.bytesNeeded += r.BytesNeeded
	s.retries += r.Retries
	s.fallbacks += r.Fallbacks
	s.integrity = s.integrity.Add(r.Integrity)
}

// roundCheckpointDir gives each round of a checkpointing workload a
// directory of its own.
func roundCheckpointDir(d *rigData, pl *placement, name string) {
	if d.cfg.CheckpointEverySteps > 0 {
		d.cfg.CheckpointDir = pl.subdir(name)
	}
}

// tracedEpochs is the length of a round in the traced pass: the cold
// epoch and at most two steady ones, which is enough for per-layer shares
// and keeps the three rounds of the pass inside the run's time budget.
func tracedEpochs(w workload) int { return 1 + min(w.steady, 2) }

// tracedShape is w as the traced pass runs it, for the result's config.
func tracedShape(w workload) workload {
	w.rounds, w.steady = 1, tracedEpochs(w)-1
	return w
}

// plainRound runs one round with probes off and no tracer — the same
// assembly as the traced round, so the difference between the two is the
// tracing overhead — and returns its steady epoch times.
func plainRound(ctx context.Context, d *rigData, epochs int) ([]float64, error) {
	round, err := d.newRound(nil)
	if err != nil {
		return nil, err
	}
	defer round.close()
	var steady []float64
	for e := 0; e < epochs; e++ {
		r, err := round.epoch(ctx, e)
		if err != nil {
			return nil, err
		}
		if e > 0 {
			steady = append(steady, r.Total.Seconds())
		}
	}
	return steady, nil
}

// runEnginePass runs the real concurrent engine under the tracer and the
// backend probes and fills the engine-sourced per-layer metrics: epoch 0
// warms a fresh engine, the steady epochs are reported.
func runEnginePass(d *rigData, w workload, pl *placement, res *runResult, t *tally, m metricSet) ([]traceEvent, error) {
	ctx := context.Background()
	epochs := tracedEpochs(w)

	// Untraced rounds run before and after the traced one, so slow drift
	// over the process's life does not read as tracing overhead.
	roundCheckpointDir(d, pl, "ckpt-plain-a")
	plain, err := plainRound(ctx, d, epochs)
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}

	roundCheckpointDir(d, pl, "ckpt-traced")
	anchor := time.Now()
	tr := trace.New()
	round, err := d.newRound(tr)
	if err != nil {
		return nil, err
	}
	defer round.close()
	d.probing(true)
	defer d.probing(false)

	var (
		wins    []window
		results []core.EpochResult
		sums    engineSums
		traced  []float64
		first   engineSnap
		poll    *stagingPoll
	)
	expected := batchesPerEpoch(d.cfg)
	for e := 0; e < epochs; e++ {
		if e == 1 {
			first = round.snap(d)
			poll = watchStaging(round.staging)
		}
		start := time.Since(anchor)
		r, err := round.epoch(ctx, e)
		if err != nil {
			if poll != nil {
				poll.stop()
			}
			return nil, fmt.Errorf("traced epoch %d: %w", e, err)
		}
		wins = append(wins, window{start, time.Since(anchor)})
		results = append(results, r)
		t.batches(expected, r.Batches)
		if e > 0 {
			sums.add(r)
			traced = append(traced, r.Total.Seconds())
		}
	}
	blocked := poll.stop()
	last := round.snap(d)
	d.probing(false)

	roundCheckpointDir(d, pl, "ckpt-plain-b")
	after, err := plainRound(ctx, d, epochs)
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	plain = append(plain, after...)

	events := tr.Events()
	opts := baseOptions(d.cfg)
	var steadyBudgets []epochBudget
	for e, evs := range epochEvents(events, wins) {
		b := stageBudget(e, evs, results[e], opts.Samplers, opts.Extractors)
		res.Budget = append(res.Budget, b)
		t.check("stage budget reconciles", b.Reconciles,
			fmt.Sprintf("epoch %d: trace wall %.4fs vs engine %.4fs", e, b.WallS, b.EngineWallS))
		if e > 0 {
			steadyBudgets = append(steadyBudgets, b)
		}
	}
	pipelineMetrics(m, steadyBudgets)

	batches := float64(sums.batches)
	featbufEngineMetrics(m, first.fb, last.fb, batches)
	pagecacheEngineMetrics(m, first.pc, last.pc, batches)
	extractEngineMetrics(m, sums)
	backendEngineMetrics(m, first, last)
	integrityEngineMetrics(m, d, first, last, sums)
	deviceEngineMetrics(m, first, last, sums.epochs)
	m["staging.blocked_share"] = blocked
	m["trace.overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)
	res.Samples["traced_epoch_s"], res.Samples["untraced_epoch_s"] = traced, plain
	res.DirectDegraded = last.dev.DirectDegraded
	return engineEvents(events, 1), nil
}
