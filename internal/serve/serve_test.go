package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/metrics"
	"gnndrive/internal/trainsim"
)

// testSpec is a small real-training job: 10 steps per epoch on the tiny
// dataset, fast enough for -race but long enough to drain mid-flight.
func testSpec(seed uint64, epochs int) trainsim.JobSpec {
	return trainsim.JobSpec{
		Dataset:    "tiny",
		System:     "gnndrive-gpu",
		Epochs:     epochs,
		BatchSize:  20,
		TrainLimit: 200,
		Hidden:     16,
		Scale:      0.05,
		Seed:       seed,
	}
}

func testDaemonConfig(t *testing.T, ctx context.Context) Config {
	t.Helper()
	return Config{
		BaseContext: ctx,
		StateDir:    t.TempDir(),
		// Fits two tiny jobs, not three: the canonical overload shape.
		// The 600000-byte feature budget decides it (256000 feature
		// bytes a job); the 2 MiB staging pool holds 32 of their
		// 128-unit quotas.
		StagingSlots:       128,
		SlotBytes:          16 << 10,
		FeatureBudgetBytes: 600_000,
		IOTokens:           128,
		MaxQueued:          -1,
		MaxRequeues:        -1,
		DrainGrace:         10 * time.Second,
		Logf:               t.Logf,
	}
}

// runClean runs one job to completion on a fresh daemon and returns its
// per-epoch records — the reference trajectory.
func runClean(t *testing.T, ctx context.Context, spec trainsim.JobSpec) []EpochRecord {
	t.Helper()
	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted {
		t.Fatalf("clean run ended %s (error %q), want completed", rec.State, rec.Error)
	}
	return rec.Epochs
}

// TestWaitJobReturnsDurableState: the state WaitJob returns is already
// the manifest's, so a client that sees a job completed and then reads
// the state directory — or restarts the daemon over it — sees it
// completed too. Two jobs run at once, so a waiter may be woken by the
// other job's broadcast.
func TestWaitJobReturnsDurableState(t *testing.T) {
	ctx := context.Background()
	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ids []string
	for seed := range uint64(2) {
		id, err := d.Submit(testSpec(seed+1, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		rec, err := d.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.store.load()
		if err != nil {
			t.Fatal(err)
		}
		for _, disk := range m.Jobs {
			if disk.ID == id && disk.State != rec.State {
				t.Errorf("%s: WaitJob returned %s, the manifest holds %s", id, rec.State, disk.State)
			}
		}
	}
}

// checkTrajectory asserts the chaos run's stitched per-epoch step-loss
// sequences are bit-identical to the clean run's. The one epoch that was
// interrupted mid-flight resumes from its checkpointed step, so its
// recorded losses are a suffix of the clean epoch's; every other epoch
// must match in full.
func checkTrajectory(t *testing.T, id string, clean, got []EpochRecord) {
	t.Helper()
	if len(got) != len(clean) {
		t.Fatalf("%s: %d epochs recorded, want %d", id, len(got), len(clean))
	}
	partial := 0
	for i, c := range clean {
		g := got[i]
		if g.Epoch != c.Epoch {
			t.Fatalf("%s: epoch %d recorded as %d", id, c.Epoch, g.Epoch)
		}
		if len(g.StepLosses) == 0 {
			t.Fatalf("%s: epoch %d has no step losses", id, c.Epoch)
		}
		if len(g.StepLosses) < len(c.StepLosses) {
			partial++
		} else if len(g.StepLosses) > len(c.StepLosses) {
			t.Fatalf("%s: epoch %d has %d steps, clean has %d", id, c.Epoch, len(g.StepLosses), len(c.StepLosses))
		}
		// Suffix equality covers both cases: full epochs compare whole.
		off := len(c.StepLosses) - len(g.StepLosses)
		for k, loss := range g.StepLosses {
			if loss != c.StepLosses[off+k] {
				t.Fatalf("%s: epoch %d step %d loss %v, clean %v — trajectory diverged",
					id, c.Epoch, off+k, loss, c.StepLosses[off+k])
			}
		}
	}
	if partial > 1 {
		t.Fatalf("%s: %d partial epochs, at most the interrupted one may be partial", id, partial)
	}
}

// TestDrainResumeBitIdentical is the serve-level chaos test: two
// concurrent jobs with injected transient faults, a graceful drain
// mid-run, and a restarted daemon over the same state dir. Both jobs
// must complete with step-loss trajectories bit-identical to clean
// uninterrupted runs of the same seeds.
func TestDrainResumeBitIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const epochs = 8
	specA, specB := testSpec(7, epochs), testSpec(11, epochs)
	cleanA := runClean(t, ctx, specA)
	cleanB := runClean(t, ctx, specB)

	cfg := testDaemonConfig(t, ctx)
	cfg.Hook = func(id string, c *trainsim.Config) {
		c.Faults = &faults.Config{Seed: 42, TransientRate: 0.05, ShortReadRate: 0.02}
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := d.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := d.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}

	// Drain once both jobs have progress but are still running.
	for {
		a, _ := d.Job(idA)
		b, _ := d.Job(idB)
		if len(a.Epochs) >= 1 && len(b.Epochs) >= 1 {
			break
		}
		if a.State.Terminal() || b.State.Terminal() {
			t.Fatalf("job finished before drain (a=%s b=%s); slow the spec down", a.State, b.State)
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for first epochs")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{idA, idB} {
		rec, err := d.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != StateInterrupted && rec.State != StateCompleted {
			t.Fatalf("%s after drain: %s (error %q)", id, rec.State, rec.Error)
		}
	}

	// Restart over the same state dir: interrupted jobs re-admit and
	// resume from their drain checkpoints.
	cfg2 := cfg
	d2, err := NewDaemon(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	recA, err := d2.WaitJob(ctx, idA)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := d2.WaitJob(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	if recA.State != StateCompleted || recB.State != StateCompleted {
		t.Fatalf("resumed jobs ended %s/%s (errors %q/%q), want completed",
			recA.State, recB.State, recA.Error, recB.Error)
	}
	checkTrajectory(t, idA, cleanA, recA.Epochs)
	checkTrajectory(t, idB, cleanB, recB.Epochs)
}

// TestAdmissionRejectsOversubscription: with two jobs holding the whole
// envelope and queueing disabled, a third submit gets ErrOverloaded
// (HTTP 429 + Retry-After) and the running jobs finish unperturbed.
func TestAdmissionRejectsOversubscription(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const epochs = 3
	specA, specB := testSpec(7, epochs), testSpec(11, epochs)
	cleanA := runClean(t, ctx, specA)

	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := d.Handler()

	submit := func(spec trainsim.JobSpec) *httptest.ResponseRecorder {
		body, _ := json.Marshal(spec)
		req := httptest.NewRequest("POST", "/jobs", strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}

	wA := submit(specA)
	wB := submit(specB)
	if wA.Code != http.StatusCreated || wB.Code != http.StatusCreated {
		t.Fatalf("first two submits: %d, %d, want 201", wA.Code, wB.Code)
	}
	wC := submit(testSpec(13, epochs))
	if wC.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429 (body %s)", wC.Code, wC.Body)
	}
	if wC.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	var recA JobRecord
	if err := json.Unmarshal(wA.Body.Bytes(), &recA); err != nil {
		t.Fatal(err)
	}
	got, err := d.WaitJob(ctx, recA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted {
		t.Fatalf("job A ended %s (error %q)", got.State, got.Error)
	}
	// The rejected third job must not have perturbed A's trajectory.
	checkTrajectory(t, recA.ID, cleanA, got.Epochs)
}

// TestStalledJobIsolated: a job wedged by a fault schedule is killed by
// its own watchdog and marked failed; its neighbor completes with a
// clean trajectory.
func TestStalledJobIsolated(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const epochs = 3
	good, stuck := testSpec(7, epochs), testSpec(11, epochs)
	stuck.StallMs = 150
	cleanGood := runClean(t, ctx, good)

	cfg := testDaemonConfig(t, ctx)
	var stuckID string
	var mu sync.Mutex
	cfg.Hook = func(id string, c *trainsim.Config) {
		mu.Lock()
		defer mu.Unlock()
		if id == stuckID {
			// Every read a straggler longer than the stall deadline
			// (5s x scale 0.05 = 250ms effective vs 150ms deadline):
			// no extract progress, so the per-job watchdog must fire.
			// Short enough that engine shutdown drains the wedged ring
			// quickly once the watchdog kills the epoch.
			c.Faults = &faults.Config{Seed: 5, StragglerRate: 1, StragglerDelay: 5 * time.Second}
		}
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	goodID, err := d.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	stuckID = "job-0001"
	mu.Unlock()
	id2, err := d.Submit(stuck)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "job-0001" {
		t.Fatalf("second job id %s, want job-0001", id2)
	}

	stuckRec, err := d.WaitJob(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if stuckRec.State != StateFailed {
		t.Fatalf("stuck job ended %s (error %q), want failed", stuckRec.State, stuckRec.Error)
	}
	// The recorded error carries the watchdog's diagnostics, the only
	// place a supervisor reads them.
	if !strings.Contains(stuckRec.Error, "stall") || !strings.Contains(stuckRec.Error, "heartbeats[") {
		t.Fatalf("stuck job error %q does not carry the stall diagnostics", stuckRec.Error)
	}
	goodRec, err := d.WaitJob(ctx, goodID)
	if err != nil {
		t.Fatal(err)
	}
	if goodRec.State != StateCompleted {
		t.Fatalf("good job ended %s (error %q)", goodRec.State, goodRec.Error)
	}
	checkTrajectory(t, goodID, cleanGood, goodRec.Epochs)
}

// TestSubmitValidation: bad specs 400-class errors, never panics.
func TestSubmitValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for _, spec := range []trainsim.JobSpec{
		{Dataset: "nope", System: "gnndrive-gpu"},
		{Dataset: "tiny", System: "marius"}, // not resumable
		{Dataset: "tiny", System: "gnndrive-gpu", Epochs: -1},
		// Range and name checks the run's Config makes, reached through
		// JobSpec.Config.
		{Dataset: "tiny", System: "gnndrive-gpu", BatchSize: -1},
		{Dataset: "tiny", System: "gnndrive-gpu", Backend: "nfs"},
		{Dataset: "tiny", System: "gnndrive-gpu", Fanouts: []int{0}},
		{Dataset: "tiny", System: "gnndrive-gpu", StallMs: -1},
		{Dataset: "tiny", System: "gnndrive-gpu", Scale: 1e300},
	} {
		if _, err := d.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Submit(%+v) = %v, want ErrBadSpec", spec, err)
		}
	}
	// The wire format is the JobSpec alone: a key only the CLI has is
	// rejected, not silently ignored.
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/jobs",
		strings.NewReader(`{"dataset":"tiny","system":"gnndrive-gpu","model":"gat"}`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("submit with a CLI-only key: %d %s, want 400", w.Code, w.Body)
	}
	if _, err := d.Job("job-9999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job lookup: %v", err)
	}
}

// TestFairSchedulerMaxMin pins the fairness contract: beyond-share
// grants are work-conserving (allowed only while nobody waits), and a
// waiter under its share is served as permits free.
func TestFairSchedulerMaxMin(t *testing.T) {
	s, err := NewFairScheduler(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.Register("a")
	b := s.Register("b")

	// Lone greed is fine: beyond fair share (2) while nobody waits.
	if !a.TryAcquire(3) {
		t.Fatal("work-conserving grant beyond fair share denied")
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- b.Acquire(ctx, 2)
	}()
	// Wait until b is registered as waiting.
	for {
		s.mu.Lock()
		w := s.waiting
		s.mu.Unlock()
		if w == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// With b waiting, a may not grow beyond its share.
	if a.TryAcquire(1) {
		t.Fatal("beyond-share grant while another tenant waits")
	}
	a.Release(2)
	if err := <-done; err != nil {
		t.Fatalf("waiter under share not served: %v", err)
	}
	a.Release(1)
	b.Release(2)

	// b blocked in Acquire above; a was always granted immediately.
	waits := s.QueueWaits()
	if waits["b"] <= 0 {
		t.Fatalf("queue wait for blocked tenant b = %v, want > 0", waits["b"])
	}
	if waits["a"] != 0 {
		t.Fatalf("queue wait for never-blocked tenant a = %v, want 0", waits["a"])
	}
	// Stats outlive the tenant so /metrics can report finished jobs.
	s.Unregister("b")
	if after := s.QueueWaits(); after["b"] != waits["b"] {
		t.Fatalf("queue wait for b changed across Unregister: %v -> %v", waits["b"], after["b"])
	}
}

// TestComputeDemandBounds sanity-checks the admission math against the
// engine's own sizing rules.
func TestComputeDemandBounds(t *testing.T) {
	spec := testSpec(1, 1)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.InOrder = true
	d := ComputeDemand(cfg)
	// 1 extractor x ring depth 64 reads, each one 128-byte vector's
	// window: two 512-byte units.
	if d.StagingSlots != 128 {
		t.Fatalf("staging units %d, want 128", d.StagingSlots)
	}
	// tiny: 2000 nodes caps the slot count; dim 32 -> 128 B/node.
	if d.FeatureSlots != 2000 || d.FeatureBytes != 2000*128 {
		t.Fatalf("feature slots %d bytes %d, want 2000 and 256000", d.FeatureSlots, d.FeatureBytes)
	}
	if d.IOTokens != 64 {
		t.Fatalf("io tokens %d, want 64", d.IOTokens)
	}
}

// TestHTTPLifecycle drives the remaining endpoints: list, get, cancel,
// metrics.
func TestHTTPLifecycle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := d.Handler()

	body, _ := json.Marshal(testSpec(3, 50))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/jobs", strings.NewReader(string(body))))
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var rec JobRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/jobs", nil))
	var list []JobRecord
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list) != 1 {
		t.Fatalf("list: %v (%d records)", err, len(list))
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+rec.ID, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("get: %d", w.Code)
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/job-9999", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("get unknown: %d", w.Code)
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("DELETE", "/jobs/"+rec.ID, nil))
	if w.Code != http.StatusNoContent {
		t.Fatalf("cancel: %d", w.Code)
	}
	got, err := d.WaitJob(ctx, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled && got.State != StateCompleted {
		t.Fatalf("after cancel: %s", got.State)
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var rep metricsReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pool.StagingSlotsTotal != 4096 { // 128 x 16 KiB in 512-byte units
		t.Fatalf("metrics pool total %d, want 4096", rep.Pool.StagingSlotsTotal)
	}
	if _, ok := rep.Jobs[rec.ID]; !ok {
		t.Fatalf("metrics missing job %s", rec.ID)
	}
	// The job's scheduler tenant is reported (0 is fine — it may never
	// have queued) and survives the job finishing.
	if _, ok := rep.IOQueue[rec.ID]; !ok {
		t.Fatalf("metrics io_queue_wait_ms missing job %s: %v", rec.ID, rep.IOQueue)
	}
}

// TestMetricsReadCounters runs one job to completion and checks its
// /metrics snapshot: every documented key is present, and every counter
// equals the sum of the job's per-epoch stats — the recorder is fed the
// same per-batch deltas the epoch collector is, not a copy made later.
func TestMetricsReadCounters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dcfg := testDaemonConfig(t, ctx)
	var mu sync.Mutex
	var want metrics.Counters
	dcfg.Hook = func(_ string, cfg *trainsim.Config) {
		record := cfg.OnEpoch
		cfg.OnEpoch = func(epoch int, st trainsim.EpochStats) {
			mu.Lock()
			want.Add(st.Counters)
			mu.Unlock()
			record(epoch, st)
		}
	}
	d, err := NewDaemon(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Submit(testSpec(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCompleted {
		t.Fatalf("job ended %s (error %q), want completed", rec.State, rec.Error)
	}

	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var rep metricsReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	snap, ok := rep.Jobs[id]
	if !ok {
		t.Fatalf("metrics missing job %s", id)
	}
	if snap.Counters != want {
		t.Errorf("job counters on /metrics:\n got %+v\nwant %+v (summed epoch stats)", snap.Counters, want)
	}
	if snap.Batches != 20 || snap.BackendReads <= 0 || snap.BytesNeeded <= 0 || snap.BytesRead <= 0 {
		t.Errorf("2 epochs x 10 steps reported %+v", snap.Counters)
	}
	if snap.ReadAmplification != want.ReadAmplification() || snap.ReadAmplification <= 0 {
		t.Errorf("read_amplification = %v, want %v", snap.ReadAmplification, want.ReadAmplification())
	}
	// Raw JSON must carry the documented field names (the API contract
	// dashboards scrape).
	var raw struct {
		Jobs map[string]map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cpu_busy_ns", "io_wait_ns", "retries", "fallbacks", "escalations",
		"stalls", "bytes_read", "bytes_needed", "backend_reads", "read_amplification", "integrity"} {
		if _, ok := raw.Jobs[id][key]; !ok {
			t.Errorf("metrics job JSON missing %q:\n%s", key, w.Body.String())
		}
	}
	if !strings.Contains(w.Body.String(), "io_queue_wait_ms") {
		t.Errorf("metrics JSON missing io_queue_wait_ms:\n%s", w.Body.String())
	}
}

// TestFileBackendJobCompletes is the regression test for the job
// directory not existing when a real-file backend opens its data file
// there: a `"backend":"file"` job must start and reach completed.
func TestFileBackendJobCompletes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := testSpec(5, 2)
	spec.Backend = "file"
	if got := runClean(t, ctx, spec); len(got) != spec.Epochs {
		t.Fatalf("%d epochs recorded, want %d", len(got), spec.Epochs)
	}
}

// TestEnvelopeReturnsToZeroAtQuiescence executes the grant lifecycle on
// the supervisor's exit paths: job A's first run attempt dies on a media
// error, is requeued (its grant released before the backoff) and then
// completes; job B is cancelled mid-run (its grant released by the
// supervisor's deferred release). Once both are terminal, /metrics must
// report an empty envelope, and after shutdown the goroutine count must
// return to where it was before the daemon started: no supervisor,
// pipeline or evicted dataset backend may outlive the daemon.
func TestEnvelopeReturnsToZeroAtQuiescence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	baseline := runtime.NumGoroutine()

	cfg := testDaemonConfig(t, ctx)
	// Room for three grants, so a leaked one never blocks re-admission:
	// the leak must show up as a nonzero envelope, not as a hang. The
	// feature budget decides it; the staging pool holds 32 grants.
	cfg.FeatureBudgetBytes = 900_000
	cfg.MaxRequeues = 1
	var mu sync.Mutex
	faulted := false
	cfg.Hook = func(id string, c *trainsim.Config) {
		mu.Lock()
		defer mu.Unlock()
		if id == "job-0000" && !faulted {
			faulted = true
			c.Faults = &faults.Config{MediaRanges: []faults.Range{{Off: 0, Len: 1 << 40}}}
		}
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	idA, err := d.Submit(testSpec(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	idB, err := d.Submit(testSpec(11, 50))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel B once it has trained an epoch, so it holds its grant.
	for {
		b, _ := d.Job(idB)
		if len(b.Epochs) >= 1 {
			break
		}
		if b.State.Terminal() {
			t.Fatalf("job B ended %s before it could be cancelled", b.State)
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for job B's first epoch")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := d.Cancel(idB); err != nil {
		t.Fatal(err)
	}
	recA, err := d.WaitJob(ctx, idA)
	if err != nil {
		t.Fatal(err)
	}
	if recA.State != StateCompleted || recA.Requeues != 1 {
		t.Fatalf("job A ended %s after %d requeues (error %q), want completed after 1", recA.State, recA.Requeues, recA.Error)
	}
	recB, err := d.WaitJob(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	if recB.State != StateCancelled {
		t.Fatalf("job B ended %s, want cancelled", recB.State)
	}

	// A job turns terminal just before its supervisor returns, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		var rep metricsReport
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Pool.StagingSlotsUsed == 0 && rep.Pool.FeatureBytesUsed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("envelope not returned at quiescence: staging_slots_used=%d feature_bytes_used=%d",
				rep.Pool.StagingSlotsUsed, rep.Pool.FeatureBytesUsed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	d.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRejectedSubmitsHoldNoMemory: a rejected Submit leaves nothing
// behind. A job context created before admission stayed a child of the
// daemon's root context until Close, about 120 B per rejection.
func TestRejectedSubmitsHoldNoMemory(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, err := NewDaemon(testDaemonConfig(t, ctx)) // MaxQueued -1: no queue
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := testSpec(1, 1)
	spec.Dataset, spec.TrainLimit = "papers100m-s", 0 // over the envelope
	if _, err := d.Submit(spec); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("over-envelope submit: %v, want ErrNeverFits", err)
	}
	heapInuse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heapInuse()
	for range 50_000 {
		if _, err := d.Submit(spec); !errors.Is(err, ErrNeverFits) {
			t.Fatalf("over-envelope submit: %v, want ErrNeverFits", err)
		}
	}
	if grew := heapInuse() - before; grew >= 1<<20 {
		t.Fatalf("50000 rejected submits grew the heap by %d bytes", grew)
	}
	if n := len(d.Jobs()); n != 0 {
		t.Fatalf("%d records after rejected submits only", n)
	}
}

// TestSubmitBodyBounds: POST /jobs reads one JSON value of at most 1 MiB.
// A larger body is refused before it is read in full, and a body with
// anything after the spec is a bad spec, not a spec with its tail
// ignored.
func TestSubmitBodyBounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, err := NewDaemon(testDaemonConfig(t, ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"2 MiB body", `{"dataset":"` + strings.Repeat("a", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing value", `{"dataset":"tiny","system":"gnndrive-gpu"}{"x":1}`, http.StatusBadRequest},
		{"trailing garbage", `{"dataset":"tiny","system":"gnndrive-gpu"} x`, http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/jobs", strings.NewReader(tc.body)))
		if w.Code != tc.code {
			t.Errorf("%s: %d %.200s, want %d", tc.name, w.Code, w.Body, tc.code)
		}
	}
	if n := len(d.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted from refused bodies", n)
	}
}

// TestDrainGraceBoundsEveryWait: DrainGrace bounds the whole drain, not
// only the first job's wait. Both jobs' reads straggle for an hour, so
// neither checkpoint ever commits, and the drain must end one grace
// period in, well inside its own ctx.
func TestDrainGraceBoundsEveryWait(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testDaemonConfig(t, ctx)
	cfg.StallDeadline = -1
	cfg.DrainGrace = 50 * time.Millisecond
	cfg.Hook = func(_ string, c *trainsim.Config) {
		c.Faults = &faults.Config{Seed: 3, StragglerRate: 1, StragglerDelay: time.Hour}
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, seed := range []uint64{7, 11} {
		if _, err := d.Submit(testSpec(seed, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain asks only jobs that have built their engine for a checkpoint.
	for running := 0; running < 2; {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for both engines")
		}
		time.Sleep(2 * time.Millisecond)
		d.mu.Lock()
		running = 0
		for _, j := range d.jobs {
			if j.eng != nil {
				running++
			}
		}
		d.mu.Unlock()
	}
	drainCtx, stop := context.WithTimeout(ctx, 5*time.Second)
	defer stop()
	start := time.Now()
	err = d.Drain(drainCtx)
	if took := time.Since(start); err != nil || took > 2*time.Second {
		t.Fatalf("drain of two stuck jobs returned %v after %v, want nil within 2s of a %v grace", err, took, cfg.DrainGrace)
	}
}

// TestDrainPersistsEveryJob: after a drain the manifest on disk holds
// every job in its final state — running and still-queued ones alike —
// though Drain writes no manifest of its own: each job's supervisor
// persists its Interrupted state before it returns.
func TestDrainPersistsEveryJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testDaemonConfig(t, ctx)
	cfg.MaxQueued = 2
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs fill the envelope; the third queues behind them.
	var ids []string
	for _, seed := range []uint64{7, 11, 13} {
		id, err := d.Submit(testSpec(seed, 50))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if rec, _ := d.Job(ids[2]); rec.State != StateQueued {
		t.Fatalf("third job is %s, want queued", rec.State)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	store, err := newJobStore(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != len(ids) || m.NextSeq != len(ids) {
		t.Fatalf("manifest holds %d jobs, next seq %d; want %d, %d", len(m.Jobs), m.NextSeq, len(ids), len(ids))
	}
	for i, rec := range m.Jobs {
		if rec.ID != ids[i] || rec.State != StateInterrupted {
			t.Fatalf("manifest job %d: %s %s, want %s interrupted", i, rec.ID, rec.State, ids[i])
		}
	}
}
