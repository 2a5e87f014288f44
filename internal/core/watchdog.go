package core

// The pipeline watchdog. A wedged stage — an extractor stuck behind a
// storage straggler, a trainer blocked on a reservation that will never
// fill — previously hung the whole epoch silently. The watchdog turns
// that into a bounded failure: every stage bumps a monotonic heartbeat
// counter on progress, a supervisor goroutine polls them, and if no
// counter moves for Options.StallDeadline the epoch is cancelled with
// ErrPipelineStalled and a diagnostics snapshot (queue depths,
// feature-buffer occupancy, staging slots, goroutine count) is recorded
// on the tracer and carried in the error text.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"gnndrive/internal/sample"
)

// ErrPipelineStalled reports that the watchdog saw no stage make
// progress for the configured stall deadline.
var ErrPipelineStalled = errors.New("core: pipeline stalled")

// heartbeats are per-stage monotonic progress counters. Stages bump
// their counter once per unit of work (a sampled batch, an extracted
// batch, a trained step, a released batch); the watchdog only compares
// sums across polls, so the absolute values are irrelevant.
type heartbeats struct {
	sample  atomic.Int64
	extract atomic.Int64
	train   atomic.Int64
	release atomic.Int64
}

func (h *heartbeats) total() int64 {
	return h.sample.Load() + h.extract.Load() + h.train.Load() + h.release.Load()
}

// heartbeatCounts is the per-stage progress snapshot inside a
// stallDiag.
type heartbeatCounts struct {
	Sample  int64
	Extract int64
	Train   int64
	Release int64
}

func (h heartbeatCounts) String() string {
	return fmt.Sprintf("sample=%d extract=%d train=%d release=%d",
		h.Sample, h.Extract, h.Train, h.Release)
}

// stallDiag is the watchdog's snapshot of a wedged pipeline: which stage
// stopped beating, how deep each hand-off queue is, the feature buffer's
// occupancy, and how many staging slots are free. String renders it for
// the tracer and the stall error.
type stallDiag struct {
	Heartbeats heartbeatCounts

	ExtractQLen, ExtractQCap int
	TrainQLen, TrainQCap     int
	ReleaseQLen, ReleaseQCap int

	// Feature-buffer occupancy; HasFB guards validity (an engine torn
	// down mid-snapshot has none).
	HasFB          bool
	FBSlots        int
	FBStandby      int
	FBRefs         int64
	FBLoads        int64
	FBReuseHits    int64
	FBSharedWaits  int64
	FBStandbyWaits int64

	// Staging pool occupancy.
	HasStaging                bool
	StagingFree, StagingSlots int

	Goroutines int
}

// String renders the diagnostics in the stable single-line format the
// tracer and error text have always carried.
func (d stallDiag) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "heartbeats[%s]", d.Heartbeats)
	fmt.Fprintf(&sb, " queues[extract=%d/%d train=%d/%d release=%d/%d]",
		d.ExtractQLen, d.ExtractQCap, d.TrainQLen, d.TrainQCap,
		d.ReleaseQLen, d.ReleaseQCap)
	if d.HasFB {
		fmt.Fprintf(&sb, " fb[slots=%d standby=%d refs=%d loads=%d reuse=%d shared-waits=%d standby-waits=%d]",
			d.FBSlots, d.FBStandby, d.FBRefs,
			d.FBLoads, d.FBReuseHits, d.FBSharedWaits, d.FBStandbyWaits)
	}
	if d.HasStaging {
		fmt.Fprintf(&sb, " staging[free=%d/%d]", d.StagingFree, d.StagingSlots)
	}
	fmt.Fprintf(&sb, " goroutines=%d", d.Goroutines)
	return sb.String()
}

// watchdog supervises one epoch's pipeline.
type watchdog struct {
	stop chan struct{}
	done chan struct{}
}

// startWatchdog launches the supervisor goroutine. It polls the
// heartbeat sum at a fraction of the deadline; if the sum is unchanged
// for at least deadline, onStall is invoked once with the diagnostics
// snapshot and the supervisor exits. Stop it with stop() before reading
// the epoch result (idempotent teardown: a stalled watchdog that
// already fired still stops cleanly).
func startWatchdog(hb *heartbeats, deadline time.Duration, diag func() stallDiag, onStall func(stallDiag)) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		poll := deadline / 4
		if poll < time.Millisecond {
			poll = time.Millisecond
		}
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last := hb.total()
		lastChange := time.Now()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
				if cur := hb.total(); cur != last {
					last = cur
					lastChange = time.Now()
					continue
				}
				if time.Since(lastChange) >= deadline {
					onStall(diag())
					return
				}
			}
		}
	}()
	return w
}

// Stop shuts the supervisor down and waits for it to exit.
func (w *watchdog) Stop() {
	close(w.stop)
	<-w.done
}

// stallDiagnostics snapshots the pipeline's observable state for the
// watchdog's dump. Best-effort and racy by design — the pipeline is
// live while we look — but a wedged pipeline is static, which is
// exactly when the snapshot is read.
func (e *Engine) stallDiagnostics(hb *heartbeats,
	extractQ chan *sample.Batch, trainQ, releaseQ chan *trainItem) stallDiag {
	d := stallDiag{
		Heartbeats: heartbeatCounts{
			Sample:  hb.sample.Load(),
			Extract: hb.extract.Load(),
			Train:   hb.train.Load(),
			Release: hb.release.Load(),
		},
		ExtractQLen: len(extractQ), ExtractQCap: cap(extractQ),
		TrainQLen: len(trainQ), TrainQCap: cap(trainQ),
		ReleaseQLen: len(releaseQ), ReleaseQCap: cap(releaseQ),
		Goroutines: runtime.NumGoroutine(),
	}
	if fb := e.fb; fb != nil {
		st := fb.Stats()
		d.HasFB = true
		d.FBSlots = fb.Slots()
		d.FBStandby = fb.StandbyLen()
		d.FBRefs = fb.TotalRefs()
		d.FBLoads = st.Loads
		d.FBReuseHits = st.ReuseHits
		d.FBSharedWaits = st.SharedWaits
		d.FBStandbyWaits = st.StandbyWaits
	}
	if s := e.staging; s != nil {
		d.HasStaging = true
		d.StagingFree = s.FreeSlots()
		d.StagingSlots = s.Slots()
	}
	return d
}
