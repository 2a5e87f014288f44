package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/sample"
	"gnndrive/internal/trace"
)

// TestWatchdogDetectsExtractStall injects a wedged extractor (blocked
// until cancellation, like an I/O path that never completes) and
// requires the watchdog to cancel the epoch within the deadline, record
// the stall, dump diagnostics, and tear down without leaking a
// goroutine, staging slot, or feature-buffer reference.
func TestWatchdogDetectsExtractStall(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	tr := trace.New()
	opts := testOpts()
	opts.StallDeadline = 80 * time.Millisecond
	opts.Tracer = tr
	e := newEngine(t, rig, opts)
	baseline := runtime.NumGoroutine()
	e.testExtractHook = func(ctx context.Context, b *sample.Batch) {
		if b.ID == 3 {
			<-ctx.Done() // wedged until the watchdog cancels the run
		}
	}

	start := time.Now()
	res, err := e.RunEpochCtx(context.Background(), 0)
	detect := time.Since(start)
	if !errors.Is(err, ErrPipelineStalled) {
		t.Fatalf("err = %v, want ErrPipelineStalled", err)
	}
	// Detection must be bounded: the deadline plus polling and teardown
	// slack, not a hang.
	if detect > 10*opts.StallDeadline {
		t.Fatalf("stall detected after %v, deadline was %v", detect, opts.StallDeadline)
	}
	if res.Stalls != 1 {
		t.Fatalf("EpochStats stalls = %d, want 1", res.Stalls)
	}
	if rig.rec.Counters().Stalls != 1 {
		t.Fatalf("recorder stalls = %d, want 1", rig.rec.Counters().Stalls)
	}
	// The diagnostics dump landed on the tracer with the pipeline state.
	var dump string
	for _, ev := range tr.Events() {
		if ev.Stage == trace.StageWatchdog && strings.HasPrefix(ev.Note, "stall:") {
			dump = ev.Note
		}
	}
	if dump == "" {
		t.Fatal("no watchdog diagnostics recorded on the tracer")
	}
	for _, want := range []string{"heartbeats[", "queues[", "fb[", "staging[", "goroutines="} {
		if !strings.Contains(dump, want) {
			t.Fatalf("diagnostics %q missing %q", dump, want)
		}
	}
	checkNoLeaks(t, e)
	checkGoroutines(t, baseline)
}

// TestWatchdogQuietOnHealthyEpoch: a generous deadline over a healthy
// run must never fire.
func TestWatchdogQuietOnHealthyEpoch(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.StallDeadline = 30 * time.Second
	e := newEngine(t, rig, opts)
	res, err := e.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 || rig.rec.Counters().Stalls != 0 {
		t.Fatalf("healthy epoch recorded %d/%d stalls", res.Stalls, rig.rec.Counters().Stalls)
	}
}

// TestWatchdogSlowButMovingPipeline: steady progress slower than the
// poll interval but faster than the deadline must not trip the
// watchdog — it watches for zero progress, not low throughput.
func TestWatchdogSlowButMovingPipeline(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.InOrder = true
	opts.StallDeadline = 120 * time.Millisecond
	e := newEngine(t, rig, opts)
	hooked := 0
	e.testExtractHook = func(ctx context.Context, b *sample.Batch) {
		// Delay a handful of batches by half the deadline each.
		if hooked < 4 {
			hooked++
			select {
			case <-time.After(opts.StallDeadline / 2):
			case <-ctx.Done():
			}
		}
	}
	res, err := e.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Fatalf("slow-but-moving pipeline recorded %d stalls", res.Stalls)
	}
}
