package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gnndrive/internal/core"
)

// TestDefaultEnvelopeAdmitsTinyJobs: a daemon at the default envelope
// charges a tiny in-order job the 64 KiB pool its engine builds, so the
// 3 MiB staging pool admits 48 of them at once, and each granted view
// holds exactly the charged units.
func TestDefaultEnvelopeAdmitsTinyJobs(t *testing.T) {
	cfg := Config{BaseContext: context.Background(), StateDir: t.TempDir()}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	sched, err := NewFairScheduler(cfg.IOTokens)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	p, err := newPool(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	spec := testSpec(1, 1)
	jobCfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	jobCfg.InOrder = true
	d := ComputeDemand(jobCfg)
	var grants []*grant
	for {
		g, err := p.tryAdmit(fmt.Sprintf("job-%04d", len(grants)), d)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		if g.view.Slots() != d.StagingSlots {
			t.Fatalf("granted view holds %d units, demand charges %d", g.view.Slots(), d.StagingSlots)
		}
		grants = append(grants, g)
	}
	if len(grants) < 30 {
		t.Fatalf("default envelope admitted %d tiny in-order jobs (%d units each of a %d-unit pool), want >= 30",
			len(grants), d.StagingSlots, p.staging.Slots())
	}
	t.Logf("default envelope admits %d tiny in-order jobs", len(grants))
	for _, g := range grants {
		g.release()
	}
}

// TestRestoreRepricesDemand: a restarted daemon charges a resumed job
// what its engine builds now, not the demand its manifest persisted. The
// hand-written record below is in the old shape, where staging_slots
// counted in-flight reads: re-read as units it is half the job's pool.
func TestRestoreRepricesDemand(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := testDaemonConfig(t, ctx)
	spec := testSpec(3, 50)
	rec := JobRecord{ID: "job-0000", Spec: spec, State: StateInterrupted}
	old, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(old, &raw); err != nil {
		t.Fatal(err)
	}
	raw["demand"] = map[string]any{"staging_slots": 64, "slot_bytes": 16384,
		"feature_bytes": 256000, "feature_slots": 2000, "io_tokens": 64}
	body, err := json.Marshal(map[string]any{"next_seq": 1, "jobs": []any{raw}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.StateDir, "manifest.json"), body, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	jobCfg, _, err := d.lowerSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := ComputeDemand(jobCfg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, _ := d.Job(rec.ID); got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			got, _ := d.Job(rec.ID)
			t.Fatalf("restored job is %s (error %q), want running", got.State, got.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var rep metricsReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pool.StagingSlotsUsed != want.StagingSlots {
		t.Errorf("restored job holds %d staging units, its engine builds %d", rep.Pool.StagingSlotsUsed, want.StagingSlots)
	}
	m, err := d.store.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 1 || m.Jobs[0].Demand != want {
		t.Errorf("manifest after restore holds %+v, want demand %+v", m.Jobs, want)
	}
	if err := d.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionMatchesModel runs seeded interleavings of tryAdmit,
// blocking admits (cancelled later, or with a ctx cancelled up front),
// release, double release and close against a reference model of the
// pool: a FIFO of waiters, only its head ever granted, and a grant only
// when both staging units and feature bytes fit. After every step the
// pool must hold what the model holds, within the envelope; at
// quiescence everything returns to zero, and once the pool and
// scheduler close the goroutine count returns to where it started.
func TestAdmissionMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkAdmissionSchedule(t, seed, 150) })
	}
}

// admitResult is one blocking admit's return.
type admitResult struct {
	g   *grant
	err error
}

// modelWaiter is one admit blocked in the pool's queue.
type modelWaiter struct {
	id     string
	d      Demand
	cancel context.CancelFunc
	done   chan admitResult
}

// admissionModel is the pool as it should be: granted totals and the
// FIFO of waiters.
type admissionModel struct {
	units, tokens int
	budget        int64
	used          int
	feat          int64
	queue         []*modelWaiter
}

func (m *admissionModel) neverFits(d Demand) bool {
	return d.StagingSlots > m.units || d.FeatureBytes > m.budget || d.IOTokens > m.tokens
}

func (m *admissionModel) fits(d Demand) bool {
	return m.units-m.used >= d.StagingSlots && m.budget-m.feat >= d.FeatureBytes
}

func (m *admissionModel) take(d Demand) {
	m.used += d.StagingSlots
	m.feat += d.FeatureBytes
}

// promote grants queue heads while they fit and returns them in order.
func (m *admissionModel) promote() []*modelWaiter {
	var granted []*modelWaiter
	for len(m.queue) > 0 && m.fits(m.queue[0].d) {
		w := m.queue[0]
		m.queue = m.queue[1:]
		m.take(w.d)
		granted = append(granted, w)
	}
	return granted
}

func checkAdmissionSchedule(t *testing.T, seed uint64, steps int) {
	baseline := runtime.NumGoroutine()
	m := &admissionModel{units: 64, tokens: 16, budget: 1000}
	sched, err := NewFairScheduler(m.tokens)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPool(Config{StagingSlots: m.units, SlotBytes: core.StagingUnit, FeatureBudgetBytes: m.budget}, sched)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	nextID := 0
	newID := func() string { nextID++; return fmt.Sprintf("j%d", nextID) }
	demand := func() Demand {
		d := Demand{StagingSlots: 1 + rng.IntN(24), FeatureBytes: rng.Int64N(400), IOTokens: 1 + rng.IntN(m.tokens)}
		switch rng.IntN(20) {
		case 0:
			d.StagingSlots = m.units + 1
		case 1:
			d.FeatureBytes = m.budget + 1
		case 2:
			d.IOTokens = m.tokens + 1
		}
		return d
	}
	var grants, released []*grant
	hold := func(g *grant, d Demand) {
		t.Helper()
		if g.demand != d || g.view.Slots() != d.StagingSlots {
			t.Fatalf("seed %d: grant for %+v holds demand %+v, a %d-unit view", seed, d, g.demand, g.view.Slots())
		}
		grants = append(grants, g)
	}
	recv := func(w *modelWaiter) admitResult {
		t.Helper()
		select {
		case r := <-w.done:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d: admit %s did not return", seed, w.id)
			return admitResult{}
		}
	}
	// settle receives the grants of the waiters the model promoted, in
	// order, waits for the pool to hold what the model holds, and checks
	// that no waiter still queued in the model has returned.
	settle := func(granted []*modelWaiter) {
		t.Helper()
		for _, w := range granted {
			r := recv(w)
			if r.err != nil {
				t.Fatalf("seed %d: queued admit %s: %v, want a grant", seed, w.id, r.err)
			}
			hold(r.g, w.d)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.mu.Lock()
			used, feat, queued := p.slotsUsed, p.featUsed, len(p.queue)
			p.mu.Unlock()
			if used > p.staging.Slots() || feat > p.featBudget {
				t.Fatalf("seed %d: pool holds %d/%d units, %d/%d feature bytes", seed, used, p.staging.Slots(), feat, p.featBudget)
			}
			if used == m.used && feat == m.feat && queued == len(m.queue) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: pool holds %d units, %d bytes, %d queued; model %d, %d, %d",
					seed, used, feat, queued, m.used, m.feat, len(m.queue))
			}
			time.Sleep(50 * time.Microsecond)
		}
		for _, w := range m.queue {
			select {
			case r := <-w.done:
				t.Fatalf("seed %d: admit %s behind the FIFO head returned %+v", seed, w.id, r)
			default:
			}
		}
	}
	startAdmit := func(ctx context.Context, cancel context.CancelFunc, d Demand) *modelWaiter {
		w := &modelWaiter{id: newID(), d: d, cancel: cancel, done: make(chan admitResult, 1)}
		go func() {
			g, err := p.admit(ctx, w.id, d)
			w.done <- admitResult{g, err}
		}()
		return w
	}

	for step := 0; step < steps; step++ {
		switch op := rng.IntN(6); {
		case op == 0: // tryAdmit
			d := demand()
			g, err := p.tryAdmit(newID(), d)
			switch {
			case m.neverFits(d):
				if !errors.Is(err, ErrNeverFits) {
					t.Fatalf("seed %d: tryAdmit %+v: %v, want ErrNeverFits", seed, d, err)
				}
			case len(m.queue) > 0 || !m.fits(d):
				if g != nil || err != nil {
					t.Fatalf("seed %d: tryAdmit %+v past a queue of %d or over the free envelope: %+v %v", seed, d, len(m.queue), g, err)
				}
			default:
				if err != nil || g == nil {
					t.Fatalf("seed %d: tryAdmit %+v that fits: %v", seed, d, err)
				}
				m.take(d)
				hold(g, d)
			}
			settle(nil)
		case op == 1: // blocking admit, cancelled by a later step
			d := demand()
			ctx, cancel := context.WithCancel(context.Background())
			w := startAdmit(ctx, cancel, d)
			switch {
			case m.neverFits(d):
				cancel()
				if r := recv(w); !errors.Is(r.err, ErrNeverFits) {
					t.Fatalf("seed %d: admit %+v: %+v, want ErrNeverFits", seed, d, r)
				}
				settle(nil)
			case len(m.queue) == 0 && m.fits(d):
				m.take(d)
				settle([]*modelWaiter{w})
				cancel()
			default:
				m.queue = append(m.queue, w)
				settle(nil)
			}
		case op == 2: // admit on a ctx cancelled before it starts
			d := demand()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			want := context.Canceled
			if m.neverFits(d) {
				want = ErrNeverFits
			}
			if r := recv(startAdmit(ctx, cancel, d)); !errors.Is(r.err, want) {
				t.Fatalf("seed %d: admit %+v on a cancelled ctx: %+v", seed, d, r)
			}
			settle(nil)
		case op == 3 && len(m.queue) > 0: // cancel a waiter
			i := rng.IntN(len(m.queue))
			w := m.queue[i]
			m.queue = append(m.queue[:i:i], m.queue[i+1:]...)
			w.cancel()
			if r := recv(w); !errors.Is(r.err, context.Canceled) {
				t.Fatalf("seed %d: cancelled admit %s: %+v", seed, w.id, r)
			}
			settle(m.promote())
		case op == 4 && len(grants) > 0: // release
			i := rng.IntN(len(grants))
			g := grants[i]
			grants = append(grants[:i:i], grants[i+1:]...)
			g.release()
			released = append(released, g)
			m.used -= g.demand.StagingSlots
			m.feat -= g.demand.FeatureBytes
			settle(m.promote())
		case op == 5 && len(released) > 0: // double release
			released[rng.IntN(len(released))].release()
			settle(nil)
		}
	}

	if rng.IntN(2) == 0 {
		// Close with waiters queued and grants held: every waiter
		// returns ErrOverloaded, and the grants still return.
		p.close()
		for _, w := range m.queue {
			if r := recv(w); !errors.Is(r.err, ErrOverloaded) || r.g != nil {
				t.Fatalf("seed %d: admit %s on a closed pool: %+v", seed, w.id, r)
			}
			w.cancel()
		}
		m.queue = nil
		if g, err := p.tryAdmit(newID(), Demand{StagingSlots: 1, IOTokens: 1}); g != nil || !errors.Is(err, ErrOverloaded) {
			t.Fatalf("seed %d: tryAdmit on a closed pool: %+v %v", seed, g, err)
		}
		for _, g := range grants {
			g.release()
			m.used -= g.demand.StagingSlots
			m.feat -= g.demand.FeatureBytes
		}
		grants = nil
		settle(nil)
	} else {
		for len(m.queue) > 0 || len(grants) > 0 {
			if len(m.queue) > 0 {
				w := m.queue[len(m.queue)-1]
				m.queue = m.queue[:len(m.queue)-1]
				w.cancel()
				if r := recv(w); !errors.Is(r.err, context.Canceled) {
					t.Fatalf("seed %d: cancelled admit %s: %+v", seed, w.id, r)
				}
				settle(m.promote())
				continue
			}
			g := grants[0]
			grants = grants[1:]
			g.release()
			m.used -= g.demand.StagingSlots
			m.feat -= g.demand.FeatureBytes
			settle(m.promote())
		}
		p.close()
	}
	if m.used != 0 || m.feat != 0 {
		t.Fatalf("seed %d: model holds %d units, %d bytes at quiescence", seed, m.used, m.feat)
	}
	sched.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("seed %d: %d goroutines after close, baseline %d\n%s", seed, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
