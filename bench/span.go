package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID indexes a recorded span; noSpan is the parent of a root.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one mini-batch share its batch number; parent is the
// span that caused this one.
type span struct {
	name       string
	parent     spanID
	batch      int32
	start, end int64 // ns since the recorder started
	// covered is child time that was measured but not recorded as spans
	// of its own (calls made thousands of times per batch, such as
	// neighbor reads); calls counts them.
	covered int64
	calls   int64
}

// spanRec keeps spans in memory until the benchmark ends.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span; end closes it.
func (r *spanRec) begin(name string, parent spanID, batch int) spanID {
	start := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, batch: int32(batch), start: start, end: start})
	id := spanID(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

func (r *spanRec) end(id spanID) {
	end := r.now()
	r.mu.Lock()
	r.spans[id].end = end
	r.mu.Unlock()
}

// cover books d of child time, spread over calls calls, against id
// without recording the children as spans.
func (r *spanRec) cover(id spanID, d time.Duration, calls int64) {
	r.mu.Lock()
	r.spans[id].covered += int64(d)
	r.spans[id].calls += calls
	r.mu.Unlock()
}

func (r *spanRec) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover (overlapping children count
// once) minus its covered child time.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]int, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[spanID(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		cur := s.start // everything before cur is already counted
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < cur {
				lo = cur
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		d := s.end - s.start - covered - s.covered
		if d < 0 {
			d = 0
		}
		self[i] = d
	}
	return self
}

// spanTotals sums, per span name, self time, duration and count over the
// spans keep admits.
type spanTotal struct {
	self, dur int64
	n         int64
}

func spanTotals(spans []span, keep func(span) bool) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		t := out[s.name]
		t.self += self[i]
		t.dur += s.end - s.start
		t.n++
		out[s.name] = t
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event); the files
// open in Perfetto and chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// lanes assigns each interval the first lane (thread id) on which it
// does not overlap its predecessor, so concurrent events of one group
// render side by side instead of on top of each other. It returns a lane
// per interval, in input order.
func lanes(starts, ends []int64) []int {
	order := make([]int, len(starts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return starts[order[a]] < starts[order[b]] })
	var free []int64 // per lane: when it becomes free
	out := make([]int, len(starts))
	for _, i := range order {
		lane := -1
		for l, until := range free {
			if until <= starts[i] {
				lane = l
				break
			}
		}
		if lane < 0 {
			free = append(free, 0)
			lane = len(free) - 1
		}
		free[lane] = ends[i]
		out[i] = lane
	}
	return out
}

func writeTrace(path string, events []traceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceBatches is how many mini-batches of the reported replay epoch go
// into the trace file: every read is a span, so a whole epoch would make
// the file tens of megabytes.
const traceBatches = 8

// replayEvents renders the replay spans keep admits for the trace file.
// The serial call chain nests on one lane; asynchronous spans (device
// copies) that outlive their parent get lanes of their own.
func replayEvents(spans []span, keep func(span) bool, pid int) []traceEvent {
	var async []int
	var events []traceEvent
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		if s.name == spanDeviceCopy {
			async = append(async, i)
			continue
		}
		events = append(events, spanEvent(s, pid, 0))
	}
	starts, ends := make([]int64, len(async)), make([]int64, len(async))
	for k, i := range async {
		starts[k], ends[k] = spans[i].start, spans[i].end
	}
	for k, lane := range lanes(starts, ends) {
		events = append(events, spanEvent(spans[async[k]], pid, 1+lane))
	}
	return events
}

func spanEvent(s span, pid, tid int) traceEvent {
	ev := traceEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
		Dur: float64(s.end-s.start) / 1e3, Pid: pid, Tid: tid,
		Args: map[string]any{"batch": s.batch}}
	if s.calls > 0 {
		ev.Args["covered_child_us"] = float64(s.covered) / 1e3
		ev.Args["covered_child_calls"] = s.calls
	}
	return ev
}
