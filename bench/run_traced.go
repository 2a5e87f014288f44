package main

import (
	"fmt"
	"path/filepath"

	"gnndrive/internal/core"
	"gnndrive/internal/serve"
	"gnndrive/internal/storage"
	"gnndrive/internal/trainsim"
)

func replayLimit(o runOpts) int {
	if o.smoke {
		return 4
	}
	return replayBatches
}

// finishTraced writes the trace file and renders the per-layer metrics.
func finishTraced(res *runResult, o runOpts, t *tally, m metricSet, events []traceEvent) error {
	res.TraceFile = filepath.Join(o.outDir, res.Workload+".trace.json")
	if err := writeTrace(res.TraceFile, events); err != nil {
		return err
	}
	res.Metrics = m.render(perLayer)
	res.finish(t)
	return nil
}

// runTraced is the traced pass of a trainsim workload: the engine pass
// (real concurrent engine, tracer and backend probes on) and the replay
// pass (serial walk of the same schedule, a span around every layer
// call). End-to-end numbers never come from here.
func runTraced(w workload, o runOpts) (*runResult, error) {
	pl, err := newPlacement(o.outDir, w.name, o.dataDir)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	cfg := w.config(o.seed, datasetFor(o.smoke))
	logs := &logCapture{}
	cfg.Logf = logs.logf
	if cfg.Backend != "sim" {
		if cfg.DataFile, err = pl.dataFile("data.img"); err != nil {
			return nil, err
		}
	}
	d, err := buildRig(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	if cfg.DataFile != "" {
		if err := syncFile(cfg.DataFile); err != nil {
			return nil, err
		}
	}
	res := &runResult{Workload: w.name, Why: w.why, Seed: o.seed, Smoke: o.smoke, Traced: true,
		Config: resolve(cfg, tracedShape(w)), Env: stampEnv(pl, cfg.DataFile), Samples: map[string][]float64{}}
	var t tally
	m := metricSet{}

	events, err := runEnginePass(d, w, pl, res, &t, m)
	if err != nil {
		return nil, err
	}
	roundCheckpointDir(d, pl, "ckpt-replay")
	replayed, err := runReplayPass(d, replayLimit(o), res, &t, m)
	if err != nil {
		return nil, err
	}
	if is, ok := d.ds.Dev.(storage.IntegrityStatser); ok && cfg.Integrity != nil {
		checkIntegrity(&t, is.IntegrityStats())
	}
	if cfg.Backend == "linuring" {
		logs.checkNative(&t, res.Env)
	}
	return res, finishTraced(res, o, &t, m, append(events, replayed...))
}

// runServeTraced is the traced pass of serve_tenants: one untapped daemon
// run for reference, one with the serve probe on every tenant, then a
// replay of tenant 0's job through the layers with its staging carved
// from a daemon-sized pool.
func runServeTraced(w workload, o runOpts) (*runResult, error) {
	pl, err := newPlacement(o.outDir, w.name, o.dataDir)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	epochs := tracedEpochs(w)
	var t tally
	m := metricSet{}

	daemonRun := func(rep int, tap serveTap) (*serveOutcome, []trainsim.JobSpec, error) {
		s, err := setupServe(pl, o, epochs, rep, tap)
		if err != nil {
			return nil, nil, err
		}
		defer pl.dropMem()
		defer s.close()
		out, err := s.run()
		return out, s.specs, err
	}
	// Untapped runs before and after the tapped one, as in runEnginePass.
	var plain []float64
	untapped := func(rep int) error {
		out, specs, err := daemonRun(rep, nil)
		if err != nil {
			return fmt.Errorf("untraced daemon run: %w", err)
		}
		steady, _, _ := checkServe(&tally{}, out, specs)
		plain = append(plain, steady...)
		return nil
	}
	if err := untapped(0); err != nil {
		return nil, err
	}
	probe := newServeProbe(tenantCount())
	out, specs, err := daemonRun(1, probe.tap)
	if err != nil {
		return nil, fmt.Errorf("traced daemon run: %w", err)
	}
	traced, _, _ := checkServe(&t, out, specs)
	if err := untapped(2); err != nil {
		return nil, err
	}
	probe.metrics(m, out)
	m["trace.overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)

	// Replay tenant 0's job as the daemon would run it.
	cfg, err := specs[0].Config()
	if err != nil {
		return nil, err
	}
	cfg.RealTrain, cfg.InOrder = true, true
	demand := serve.ComputeDemand(cfg)
	cfg.FeatureSlots = demand.FeatureSlots
	cfg.CheckpointDir = pl.subdir("ckpt-replay")
	if cfg.DataFile, err = pl.dataFile("replay.img"); err != nil {
		return nil, err
	}
	pool, err := core.NewStaging(nil, serveStagingSlots, serveSlotBytes)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	if cfg.SharedStaging, err = pool.Carve(demand.StagingSlots); err != nil {
		return nil, err
	}
	d, err := buildRig(cfg)
	if err != nil {
		return nil, fmt.Errorf("replay setup: %w", err)
	}
	defer d.close()

	res := &runResult{Workload: w.name, Why: w.why, Seed: o.seed, Smoke: o.smoke, Traced: true,
		Config: resolve(cfg, tracedShape(w)), Env: stampEnv(pl, cfg.DataFile), Samples: map[string][]float64{}}
	res.Config.Tenants = len(specs)
	res.Samples["traced_epoch_s"], res.Samples["untraced_epoch_s"] = traced, plain
	res.Notes = append(res.Notes, "the daemon builds each job's backend and engine inside the harness: pipeline.* come from the harness's epoch stats (no release stage, no reorder count), and backend latency percentiles, device transfer and page-cache counters are reported by the replay pass or read 0")
	replayed, err := runReplayPass(d, replayLimit(o), res, &t, m)
	if err != nil {
		return nil, err
	}
	return res, finishTraced(res, o, &t, m, replayed)
}
