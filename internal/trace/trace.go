// Package trace records per-mini-batch pipeline events (which stage
// handled which batch, when) so GNNDrive's claimed overlap — extraction
// for one mini-batch hidden behind training of others (§4.2) — can be
// observed and quantified rather than inferred from aggregate times.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage identifies a pipeline stage.
type Stage string

// The four GNNDrive stages.
const (
	StageSample  Stage = "sample"
	StageExtract Stage = "extract"
	StageTrain   Stage = "train"
	StageRelease Stage = "release"
	// StageWatchdog marks supervisor events: stall diagnostics and
	// checkpoint commits, recorded as zero-length annotated events.
	StageWatchdog Stage = "watchdog"
)

// Event is one stage execution for one mini-batch.
type Event struct {
	Stage Stage         `json:"stage"`
	Batch int           `json:"batch"`
	Start time.Duration `json:"start_ns"` // relative to tracer start
	End   time.Duration `json:"end_ns"`
	// Note carries free-form diagnostics for annotation events (watchdog
	// stall dumps, checkpoint commits); empty for plain stage events.
	Note string `json:"note,omitempty"`
}

// Tracer collects events. Safe for concurrent use. The zero value is not
// usable; construct with New. A nil *Tracer is a no-op for Record, so
// call sites need no branching.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// New creates a tracer anchored at now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Record adds an event for a stage execution spanning [start, end).
// No-op on a nil tracer.
func (t *Tracer) Record(stage Stage, batch int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Stage: stage, Batch: batch,
		Start: start.Sub(t.start), End: end.Sub(t.start),
	})
	t.mu.Unlock()
}

// Annotate adds a zero-length event carrying a diagnostic note (stall
// dump, checkpoint commit). No-op on a nil tracer.
func (t *Tracer) Annotate(stage Stage, note string) {
	if t == nil {
		return
	}
	at := time.Since(t.start)
	t.mu.Lock()
	t.events = append(t.events, Event{Stage: stage, Batch: -1, Start: at, End: at, Note: note})
	t.mu.Unlock()
}

// Events returns a sorted copy of the recorded events.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteJSON dumps the events as a JSON array (one object per event) for
// external visualization.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Events())
}

// Analysis summarizes the pipeline behavior of a trace.
type Analysis struct {
	// Wall is the span from the first event start to the last event end.
	Wall time.Duration
	// StageBusy sums execution time per stage.
	StageBusy map[Stage]time.Duration
	// OverlapFactor is sum(all stage busy)/Wall: 1.0 means fully
	// serialized stages; >1 means the pipeline genuinely overlaps.
	OverlapFactor float64
	// OutOfOrder counts train events whose batch ID is smaller than a
	// previously trained batch — evidence of mini-batch reordering.
	OutOfOrder int
}

// Analyze computes the summary.
func (t *Tracer) Analyze() Analysis {
	events := t.Events()
	a := Analysis{StageBusy: map[Stage]time.Duration{}}
	if len(events) == 0 {
		return a
	}
	first, last := events[0].Start, events[0].End
	var busy time.Duration
	maxTrained := -1
	// Train events in time order (events are sorted by start).
	for _, e := range events {
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		d := e.End - e.Start
		a.StageBusy[e.Stage] += d
		busy += d
		if e.Stage == StageTrain {
			if e.Batch < maxTrained {
				a.OutOfOrder++
			}
			if e.Batch > maxTrained {
				maxTrained = e.Batch
			}
		}
	}
	a.Wall = last - first
	if a.Wall > 0 {
		a.OverlapFactor = float64(busy) / float64(a.Wall)
	}
	return a
}

// String renders the analysis compactly.
func (a Analysis) String() string {
	return fmt.Sprintf("wall=%v overlap=%.2fx out-of-order=%d sample=%v extract=%v train=%v",
		a.Wall.Round(time.Millisecond), a.OverlapFactor, a.OutOfOrder,
		a.StageBusy[StageSample].Round(time.Millisecond),
		a.StageBusy[StageExtract].Round(time.Millisecond),
		a.StageBusy[StageTrain].Round(time.Millisecond))
}
