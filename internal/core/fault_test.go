package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/faults"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
)

// checkNoLeaks asserts the engine's shared resources are fully returned:
// every staging slot free and zero feature-buffer references.
func checkNoLeaks(t *testing.T, e *Engine) {
	t.Helper()
	if free, total := e.staging.FreeSlots(), e.staging.Slots(); free != total {
		t.Fatalf("staging slots leaked: %d free of %d", free, total)
	}
	if refs := e.fb.TotalRefs(); refs != 0 {
		t.Fatalf("feature buffer leaked %d references", refs)
	}
}

// checkGoroutines polls until the goroutine count returns to the baseline
// (small slack for runtime helpers), failing if epoch goroutines linger.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEpochCompletesUnderTransientFaults(t *testing.T) {
	// Fault-free reference run for the expected batch count.
	clean := newRig(t, device.InstantConfig(), 64<<20)
	cleanEng := newEngine(t, clean, testOpts())
	ref, err := cleanEng.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Same training run with a seeded 1% transient error rate (plus some
	// short reads and stragglers): the retry layer must absorb every fault
	// and deliver the identical batch count.
	rig := newRig(t, device.InstantConfig(), 64<<20)
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		Seed:           99,
		TransientRate:  0.01,
		ShortReadRate:  0.005,
		StragglerRate:  0.005,
		StragglerDelay: time.Microsecond,
	}))
	e := newEngine(t, rig, testOpts())
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("epoch failed under transient faults: %v", err)
	}
	if res.Batches != ref.Batches {
		t.Fatalf("batches %d, fault-free run produced %d", res.Batches, ref.Batches)
	}
	injected := rig.ds.Dev.Injector().Counts()
	if injected.Transient == 0 {
		t.Fatal("injector never fired; test exercises nothing")
	}
	if res.Retries == 0 && rig.cache.Stats().Retries == 0 {
		t.Fatalf("no retries recorded despite %d injected faults", injected.Total())
	}
	if res.Escalations != 0 {
		t.Fatalf("%d escalations in a transient-only run", res.Escalations)
	}
	if got := rig.rec.Counters().Retries; got != res.Retries {
		t.Fatalf("recorder retries %d != epoch retries %d", got, res.Retries)
	}
	checkNoLeaks(t, e)
}

func TestSyncExtractionRetriesTransientFaults(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{Seed: 5, TransientRate: 0.02}))
	opts := testOpts()
	opts.SyncExtraction = true
	e := newEngine(t, rig, opts)
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("sync epoch failed: %v", err)
	}
	if res.Batches == 0 {
		t.Fatal("no batches trained")
	}
	checkNoLeaks(t, e)
}

func TestPermanentMediaErrorFailsEpochPromptly(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	// (Almost) every feature read fails permanently: the feature region is
	// a bad media range. Retries must not mask it and the pipeline must
	// tear down instead of wedging. The range starts at the first page
	// boundary inside the region so the last topology page — which
	// straddles into the features, as mmap pages do — stays readable and
	// the fault is hit by the extractor, not the sampler.
	off := (rig.ds.Layout.FeaturesOff + 4095) &^ 4095
	featLen := rig.ds.NumNodes*rig.ds.FeatBytes() - (off - rig.ds.Layout.FeaturesOff)
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		MediaRanges: []faults.Range{{Off: off, Len: featLen}},
	}))
	e := newEngine(t, rig, testOpts())
	baseline := runtime.NumGoroutine()

	type outcome struct {
		res EpochResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.TrainEpochFrom(context.Background(), 0, 0)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("epoch succeeded with every feature read failing")
		}
		if !errors.Is(o.err, faults.ErrMedia) {
			t.Fatalf("error %v does not wrap faults.ErrMedia", o.err)
		}
		if o.res.Escalations == 0 {
			t.Fatal("no escalation recorded for the permanent error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("TrainEpochFrom wedged on a permanent storage error")
	}
	checkGoroutines(t, baseline)
	checkNoLeaks(t, e)
}

func TestTrainEpochCancelledBeforeStart(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	e := newEngine(t, rig, testOpts())
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.TrainEpochFrom(ctx, 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	checkGoroutines(t, baseline)
	checkNoLeaks(t, e)
}

func TestTrainEpochCancelledMidEpoch(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	// Stragglers slow every read down so the cancel lands mid-pipeline.
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		Seed:           1,
		StragglerRate:  1,
		StragglerDelay: 200 * time.Microsecond,
	}))
	e := newEngine(t, rig, testOpts())
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.TrainEpochFrom(ctx, 0, 0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A fast machine may finish the tiny epoch before the cancel
		// lands; otherwise the cancellation must surface.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled epoch did not return")
	}
	checkGoroutines(t, baseline)
	checkNoLeaks(t, e)
}

// stuckTopology wraps a backend so that every read of the index region
// hangs at the device until the request's own ctx is cancelled; a request
// carrying no ctx never completes. Feature reads pass through. Its
// synchronous reads are bound to its own Submit, and they sit one
// embedding level above the wrapped backend's, so they are the ones a
// one-page fault calls.
type stuckTopology struct {
	*storage.SyncReads
	passThrough
	indicesEnd int64
	entered    chan struct{} // closed when the first topology read arrives
	once       sync.Once
}

// passThrough is the backend stuckTopology wraps.
type passThrough struct{ storage.Backend }

func (b *stuckTopology) Submit(req *storage.Request) {
	if req.Off >= b.indicesEnd {
		b.Backend.Submit(req)
		return
	}
	b.once.Do(func() { close(b.entered) })
	if req.Ctx == nil {
		return
	}
	go func() {
		<-req.Ctx.Done()
		req.Err = req.Ctx.Err()
		req.Done(req)
	}()
}

// TestCancelAbortsStuckTopologyFault: the run's ctx must reach the page
// faults the samplers cause. On the parent CachedReader.Neighbors read
// through File.Read, which substituted context.Background(), so a run
// whose topology read hung could not be cancelled.
func TestCancelAbortsStuckTopologyFault(t *testing.T) {
	newStuck := func(t *testing.T) (*Engine, *stuckTopology) {
		rig := newRig(t, device.InstantConfig(), 64<<20)
		stuck := &stuckTopology{passThrough: passThrough{rig.ds.Dev},
			indicesEnd: rig.ds.Layout.IndicesOff + rig.ds.Layout.IndicesLen,
			entered:    make(chan struct{})}
		stuck.SyncReads = storage.NewSyncReads(stuck.Submit, rig.ds.Dev.SectorSize())
		rig.ds.Dev = stuck
		rig.cache = pagecache.New(stuck, rig.budget)
		return newEngine(t, rig, testOpts()), stuck
	}
	for name, run := range map[string]func(*Engine, context.Context) error{
		"TrainEpochFrom": func(e *Engine, ctx context.Context) error { _, err := e.TrainEpochFrom(ctx, 0, 0); return err },
		"SampleOnly":     func(e *Engine, ctx context.Context) error { _, err := e.SampleOnly(ctx, 0); return err },
	} {
		t.Run(name, func(t *testing.T) {
			e, stuck := newStuck(t)
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- run(e, ctx) }()
			<-stuck.entered // a sampler is now blocked inside a topology fault
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled run still blocked: the topology fault dropped the run's ctx")
			}
			checkGoroutines(t, baseline)
			checkNoLeaks(t, e)
		})
	}
}

func TestExtractBatchFailureRollsBackReservations(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	nodes := []int64{3, 77, 1500, 42}
	// Only one node's feature vector sits on bad media; the batch still
	// must fail, and every reservation (including the healthy nodes') must
	// be rolled back with all staging slots returned.
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		MediaRanges: []faults.Range{{
			Off: rig.ds.Layout.FeaturesOff + nodes[2]*rig.ds.FeatBytes(), Len: rig.ds.FeatBytes(),
		}},
	}))
	opts := testOpts()
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	x := newExtractor(e)
	_, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err == nil {
		t.Fatal("extractBatch succeeded over a bad media range")
	}
	if !errors.Is(err, faults.ErrMedia) {
		t.Fatalf("error %v does not wrap faults.ErrMedia", err)
	}
	if st.Escalations == 0 {
		t.Fatal("no escalation recorded")
	}
	checkNoLeaks(t, e)
	// The injector must have seen exactly budget+1 attempts? No — media
	// errors are not retryable, so the op is tried exactly once.
	if st.Retries != 0 {
		t.Fatalf("%d retries of a permanent media error", st.Retries)
	}
}

func TestExtractBatchRetriesTransient(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	// A rate the budget of 3 retries outlasts: one op fails all 4 of its
	// attempts with probability 0.2⁴, and the schedule is seeded.
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{Seed: 17, TransientRate: 0.2}))
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	x := newExtractor(e)
	// Scattered nodes: contiguous vectors would merge into one joint read
	// and a single fault roll.
	var nodes []int64
	for v := int64(0); v < 16; v++ {
		nodes = append(nodes, v*100+1)
	}
	item, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err != nil {
		t.Fatalf("extraction failed despite retries: %v", err)
	}
	if st.Retries == 0 {
		t.Fatal("0.2 transient rate produced no retries over 16 nodes")
	}
	for _, v := range nodes {
		if !e.fb.Valid(v) {
			t.Fatalf("node %d not valid", v)
		}
	}
	e.fb.Release(item.batch.Nodes)
	checkNoLeaks(t, e)
}

func TestRetryBudgetExhaustionEscalates(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	// Rate 1: every attempt fails transiently, so the budget runs out.
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{Seed: 23, TransientRate: 1}))
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	x := newExtractor(e)
	_, st, err := x.extractBatch(context.Background(), buildBatchOf(0, 3, 4))
	if err == nil {
		t.Fatal("extraction succeeded with a 100% failure rate")
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("error %v does not wrap the transient cause", err)
	}
	if st.Retries == 0 || st.Escalations == 0 {
		t.Fatalf("retries=%d escalations=%d", st.Retries, st.Escalations)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("after %d attempts", retryBudget+1)) {
		t.Fatalf("error %q does not report the budget's %d attempts", err, retryBudget+1)
	}
	checkNoLeaks(t, e)
}

func TestParallelEpochFailurePropagates(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	featLen := rig.ds.NumNodes * rig.ds.FeatBytes()
	rig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		MediaRanges: []faults.Range{{Off: rig.ds.Layout.FeaturesOff, Len: featLen}},
	}))
	// The 0.05 time scale of the paper's GPUs keeps each all-reduce short.
	dcfg := device.InstantConfig()
	dcfg.TimeScale = 0.05
	devs := []*device.Device{device.New(dcfg), device.New(dcfg)}
	for _, d := range devs {
		t.Cleanup(func() { d.Close() })
	}
	opts := testOpts()
	opts.BatchSize = 20
	p, err := NewParallel(rig.ds, devs, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	// Which worker hits the bad media first is a race, and the worker that
	// loses it returns context.Canceled: reporting errors by worker index
	// returned the wrong one in about 7 % of epochs, so one epoch proves
	// nothing. Every epoch must report the cause.
	for epoch := 0; epoch < 200; epoch++ {
		done := make(chan error, 1)
		go func() {
			_, _, err := p.TrainEpochCtx(context.Background(), epoch)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("epoch %d: parallel epoch succeeded over bad media", epoch)
			}
			if !errors.Is(err, faults.ErrMedia) {
				t.Fatalf("epoch %d: error %v does not wrap faults.ErrMedia", epoch, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a failed worker wedged its siblings")
		}
	}
}
