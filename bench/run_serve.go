package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gnndrive/internal/serve"
	"gnndrive/internal/trainsim"
)

// tenantCount is nproc tenants, held to the range the daemon envelope
// below is sized for.
func tenantCount() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	return n
}

// The daemon's shared envelope. tenantIOTokens is half of one tenant's
// I/O-token ceiling (an in-order job asks for ring depth 64), so the
// fair-share gate actually rations; the staging pool and feature budget
// are generous, so admission never queues a tenant.
const (
	tenantIOTokens     = 32
	serveStagingSlots  = 384
	serveSlotBytes     = 16 << 10
	serveFeatureBudget = 256 << 20
)

// serveTap lets the traced pass observe each job's harness config just
// before its run starts; nil in the untraced pass.
type serveTap func(tenant int, cfg *trainsim.Config)

// serveOutcome is what one daemon run produced.
type serveOutcome struct {
	epochs    [][]trainsim.EpochStats // by tenant, in epoch order
	records   []serve.JobRecord
	admit     []time.Duration // Submit latency by tenant
	queueWait []time.Duration // Submit return to run start, by tenant
	makespan  time.Duration
	mem       memWindow
}

// serveSetup is the prepared state of one serve_tenants run: one built
// dataset per tenant and a started daemon.
type serveSetup struct {
	daemon *serve.Daemon
	cancel context.CancelFunc
	specs  []trainsim.JobSpec
	cfgs   []trainsim.Config // the dataset cells the tenants will hit

	mu     sync.Mutex
	epochs [][]trainsim.EpochStats
	hookAt []time.Time
	tap    serveTap
}

// tenantDataset is the dataset cell the daemon's lowered job config maps
// to once the hook has pointed DataFile at path: building it during
// setup means the job finds it cached and the makespan measures training.
func tenantDataset(spec trainsim.JobSpec, path string) (trainsim.Config, error) {
	cfg, err := spec.Config()
	if err != nil {
		return cfg, err
	}
	cfg.DataFile = path
	return cfg, nil
}

// setupServe builds every tenant's dataset and starts the daemon.
//
// The hook points each job's DataFile at a file the benchmark created:
// with backend "file" the daemon would otherwise create the backend under
// <state>/jobs/<id>/ before that directory exists and every job would
// fail at start.
func setupServe(pl *placement, o runOpts, epochs int, rep int, tap serveTap) (*serveSetup, error) {
	n := tenantCount()
	s := &serveSetup{tap: tap, epochs: make([][]trainsim.EpochStats, n), hookAt: make([]time.Time, n)}
	for i := 0; i < n; i++ {
		spec := tenantSpec(o.seed, i, epochs, o.smoke)
		path, err := pl.dataFile(fmt.Sprintf("tenant-%d.img", i))
		if err != nil {
			return nil, err
		}
		cfg, err := tenantDataset(spec, path)
		if err != nil {
			return nil, err
		}
		trainsim.DeviceStats(cfg)
		if err := syncFile(path); err != nil {
			return nil, err
		}
		s.specs = append(s.specs, spec)
		s.cfgs = append(s.cfgs, cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d, err := serve.NewDaemon(serve.Config{
		BaseContext:        ctx,
		StateDir:           pl.subdir(fmt.Sprintf("state-%d", rep)),
		StagingSlots:       serveStagingSlots,
		SlotBytes:          serveSlotBytes,
		FeatureBudgetBytes: serveFeatureBudget,
		IOTokens:           tenantIOTokens * n,
		Hook:               s.hook,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.daemon, s.cancel = d, cancel
	return s, nil
}

func (s *serveSetup) hook(id string, cfg *trainsim.Config) {
	var i int
	if _, err := fmt.Sscanf(id, "job-%d", &i); err != nil || i < 0 || i >= len(s.cfgs) {
		return
	}
	cfg.DataFile = s.cfgs[i].DataFile
	prev := cfg.OnEpoch
	cfg.OnEpoch = func(e int, st trainsim.EpochStats) {
		s.mu.Lock()
		s.epochs[i] = append(s.epochs[i], st)
		s.mu.Unlock()
		prev(e, st)
	}
	s.mu.Lock()
	s.hookAt[i] = time.Now()
	s.mu.Unlock()
	if s.tap != nil {
		s.tap(i, cfg)
	}
}

// close stops the daemon and drops any dataset a job did not finish with.
func (s *serveSetup) close() {
	s.daemon.Close()
	s.cancel()
	for _, cfg := range s.cfgs {
		trainsim.DropDataset(cfg)
	}
}

// run submits every tenant back to back and waits for all of them.
func (s *serveSetup) run() (*serveOutcome, error) {
	n := len(s.specs)
	out := &serveOutcome{admit: make([]time.Duration, n), queueWait: make([]time.Duration, n)}
	ids := make([]string, n)
	submitted := make([]time.Time, n)
	start := readMem()
	t0 := time.Now()
	for i, spec := range s.specs {
		ts := time.Now()
		id, err := s.daemon.Submit(spec)
		if err != nil {
			return nil, fmt.Errorf("submit tenant %d: %w", i, err)
		}
		submitted[i] = time.Now()
		out.admit[i] = submitted[i].Sub(ts)
		ids[i] = id
	}
	for _, id := range ids {
		rec, err := s.daemon.WaitJob(context.Background(), id)
		if err != nil {
			return nil, fmt.Errorf("wait %s: %w", id, err)
		}
		out.records = append(out.records, rec)
	}
	out.makespan = time.Since(t0)
	out.mem = readMem().since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	out.epochs = s.epochs
	for i := range out.queueWait {
		if !s.hookAt[i].IsZero() && s.hookAt[i].After(submitted[i]) {
			out.queueWait[i] = s.hookAt[i].Sub(submitted[i])
		}
	}
	return out, nil
}

// checkServe applies serve_tenants' correctness checks and returns the
// steady and cold epoch times and the batches trained.
func checkServe(t *tally, out *serveOutcome, specs []trainsim.JobSpec) (steady, cold []float64, batches int) {
	for i, rec := range out.records {
		t.check("job completed", rec.State == serve.StateCompleted,
			fmt.Sprintf("%s ended %s: %s", rec.ID, rec.State, rec.Error))
		t.check("no requeues", rec.Requeues == 0, fmt.Sprintf("%s requeued %d times", rec.ID, rec.Requeues))
		cfg, err := specs[i].Config()
		if err != nil {
			t.check("job spec lowers", false, err.Error())
			continue
		}
		want := specs[i].NumEpochs()
		t.check("every epoch ran", len(out.epochs[i]) == want, fmt.Sprintf("tenant %d: %d of %d", i, len(out.epochs[i]), want))
		for e, st := range out.epochs[i] {
			checkEpoch(t, batchesPerEpoch(cfg), st)
			batches += st.Batches
			if e == 0 {
				cold = append(cold, st.Total.Seconds())
			} else {
				steady = append(steady, st.Total.Seconds())
			}
		}
	}
	return steady, cold, batches
}

// runServeEndToEnd measures serve_tenants with tracing off. A daemon run
// uses up its set-up (jobs drop their datasets as they complete), so each
// measured round follows a set-up of its own: of the run's set-ups, the
// last w.rounds are each followed by a round.
func runServeEndToEnd(w workload, o runOpts) (*runResult, error) {
	pl, err := newPlacement(o.outDir, w.name, o.dataDir)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	epochs := 1 + w.steady
	res := &runResult{Workload: w.name, Why: w.why, Seed: o.seed, Smoke: o.smoke}
	res.Notes = append(res.Notes, "workaround: serve.Config.Hook points each job's DataFile at a benchmark-made file; with backend=file the daemon creates the backend before <state>/jobs/<id>/ exists and every job fails at start")

	ref, err := newRefKernel(pl)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	defer ref.close()
	var (
		t                    tally
		setups, steady, cold timings
		makespans            []float64
		mem                  memWindow
		batches              int
		peaks                []float64
	)
	reps := max(setupReps, w.rounds)
	for rep := 0; rep < reps; rep++ {
		before := ref.read()
		t0 := time.Now()
		s, err := setupServe(pl, o, epochs, rep, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		runtime.GC() // as in runEndToEnd: keep the collector out of the reading
		setups.add(d, between(before, ref.read(), refSetup))
		if rep == 0 {
			cfg0, err := s.specs[0].Config()
			if err != nil {
				s.close()
				return nil, err
			}
			res.Config = resolve(cfg0, w)
			res.Config.Tenants = len(s.specs)
			res.Config.RealTrain, res.Config.InOrder = true, true // forced by the daemon
			res.Env = stampEnv(pl, s.cfgs[0].DataFile)
		}
		if rep >= reps-w.rounds {
			settle(res)
			out, err := s.run()
			if err != nil {
				s.close()
				return nil, err
			}
			st, cd, n := checkServe(&t, out, s.specs)
			// Tenants' epochs overlap, so no reading belongs to one of
			// them: wall time (w.ref is refNone).
			for _, v := range st {
				steady.add(v, 1)
			}
			for _, v := range cd {
				cold.add(v, 1)
			}
			batches += n
			makespans = append(makespans, out.makespan.Seconds())
			mem.mallocs, mem.bytes = mem.mallocs+out.mem.mallocs, mem.bytes+out.mem.bytes
			peaks = append(peaks, peakRSSMB())
		}
		s.close()
		pl.dropMem()
	}
	// Tenants share one heap, so allocation is taken over each round's
	// whole makespan and divided by every batch trained in it.
	res.endToEndMetrics(measured{setups: setups, steady: steady, cold: cold, makespans: makespans,
		mem: mem, batches: batches, peaks: peaks})
	ref.samples(res.Samples)
	res.finish(&t)
	return res, nil
}
