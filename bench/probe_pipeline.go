package main

import (
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/trace"
)

// reconcileTolerance is how far the trace's view of an epoch may differ
// from the engine's own before the stage budget is rejected.
const reconcileTolerance = 0.05

// window is one epoch's span on the tracer's clock.
type window struct{ start, end time.Duration }

// epochEvents splits a tracer's events among epoch windows. An event
// belongs to the epoch whose window holds its start; the tracer's clock
// starts a hair after the benchmark's anchor, so window edges sit in the
// idle gaps between epochs where no event can start.
func epochEvents(events []trace.Event, wins []window) [][]trace.Event {
	out := make([][]trace.Event, len(wins))
	for _, ev := range events {
		if ev.Batch < 0 {
			continue // annotation
		}
		for i := len(wins) - 1; i >= 0; i-- {
			var edge time.Duration
			if i > 0 {
				edge = (wins[i-1].end + wins[i].start) / 2
			}
			if ev.Start >= edge {
				out[i] = append(out[i], ev)
				break
			}
		}
	}
	return out
}

// within reports whether a agrees with b to tol of b, or to a millisecond
// where b is too small for a share of it to mean anything.
func within(a, b time.Duration, tol float64) bool {
	diff := (a - b).Abs()
	return diff < time.Millisecond || float64(diff) <= tol*float64(b)
}

// stageBudget builds one epoch's budget from its trace events and checks
// it against the engine's own independently timed breakdown: the trace's
// wall (stage busy sums ÷ overlap factor) against the engine's epoch
// time, and each stage's busy sum against the engine's.
func stageBudget(epoch int, events []trace.Event, res core.EpochResult, samplers, extractors int) epochBudget {
	busy := map[trace.Stage]time.Duration{}
	var first, last time.Duration
	maxTrained, outOfOrder := -1, 0
	for i, ev := range events { // sorted by start
		if i == 0 || ev.Start < first {
			first = ev.Start
		}
		if ev.End > last {
			last = ev.End
		}
		busy[ev.Stage] += ev.End - ev.Start
		if ev.Stage == trace.StageTrain {
			if ev.Batch < maxTrained {
				outOfOrder++
			} else {
				maxTrained = ev.Batch
			}
		}
	}
	wall := last - first
	var sum time.Duration
	for _, b := range busy {
		sum += b
	}
	b := epochBudget{
		Epoch:        epoch,
		SampleBusyS:  busy[trace.StageSample].Seconds(),
		ExtractBusyS: busy[trace.StageExtract].Seconds(),
		TrainBusyS:   busy[trace.StageTrain].Seconds(),
		ReleaseBusyS: busy[trace.StageRelease].Seconds(),
		WallS:        wall.Seconds(),
		EngineWallS:  res.Total.Seconds(),
		OutOfOrder:   outOfOrder,
	}
	if wall > 0 {
		b.OverlapFactor = float64(sum) / float64(wall)
	}
	// The critical stage is the one whose workers are busiest: its busy
	// time per worker is the share of the wall it accounts for.
	perWorker := []struct {
		name string
		d    time.Duration
	}{
		{"sample", busy[trace.StageSample] / time.Duration(samplers)},
		{"extract", busy[trace.StageExtract] / time.Duration(extractors)},
		{"train", busy[trace.StageTrain]},
		{"release", busy[trace.StageRelease]},
	}
	var crit time.Duration
	for _, s := range perWorker {
		if s.d >= crit {
			crit, b.Critical = s.d, s.name
		}
	}
	if wall > 0 {
		b.CriticalShare = float64(crit) / float64(wall)
	}
	b.Reconciles = within(wall, res.Total, reconcileTolerance) &&
		within(busy[trace.StageSample], res.Sample, reconcileTolerance) &&
		within(busy[trace.StageExtract], res.Extract, reconcileTolerance) &&
		within(busy[trace.StageTrain], res.Train, reconcileTolerance) &&
		within(busy[trace.StageRelease], res.Release, reconcileTolerance)
	return b
}

// pipelineMetrics averages budgets (the steady epochs') into the
// pipeline.* metrics.
func pipelineMetrics(m metricSet, budgets []epochBudget) {
	if len(budgets) == 0 {
		return
	}
	n := float64(len(budgets))
	for _, b := range budgets {
		m["pipeline.sample_busy_s"] += b.SampleBusyS / n
		m["pipeline.extract_busy_s"] += b.ExtractBusyS / n
		m["pipeline.train_busy_s"] += b.TrainBusyS / n
		m["pipeline.release_busy_s"] += b.ReleaseBusyS / n
		m["pipeline.overlap_factor"] += b.OverlapFactor / n
		m["pipeline.critical_share"] += b.CriticalShare / n
		m["pipeline.out_of_order"] += float64(b.OutOfOrder) / n
	}
}

// engineEvents renders tracer events for the trace file: one process,
// stages grouped into thread ranges, concurrent workers of a stage on
// lanes of their own.
func engineEvents(events []trace.Event, pid int) []traceEvent {
	base := map[trace.Stage]int{trace.StageSample: 0, trace.StageExtract: 16,
		trace.StageTrain: 32, trace.StageRelease: 48}
	byStage := map[trace.Stage][]trace.Event{}
	for _, ev := range events {
		if _, ok := base[ev.Stage]; ok && ev.Batch >= 0 {
			byStage[ev.Stage] = append(byStage[ev.Stage], ev)
		}
	}
	var out []traceEvent
	for stage, evs := range byStage {
		starts, ends := make([]int64, len(evs)), make([]int64, len(evs))
		for i, ev := range evs {
			starts[i], ends[i] = int64(ev.Start), int64(ev.End)
		}
		for i, lane := range lanes(starts, ends) {
			out = append(out, traceEvent{Name: string(stage), Ph: "X",
				Ts: float64(starts[i]) / 1e3, Dur: float64(ends[i]-starts[i]) / 1e3,
				Pid: pid, Tid: base[stage] + lane, Args: map[string]any{"batch": evs[i].Batch}})
		}
	}
	return out
}
