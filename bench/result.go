package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// check is one correctness check made inside a run. A failed check
// counts in failed_share and fails the command.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// tally counts what a run attempted and what failed: batches that should
// have trained, jobs that should have completed, and correctness checks.
type tally struct {
	attempted, failed int
	checks            []check
}

func (t *tally) batches(expected, trained int) {
	t.attempted += expected
	if trained < expected {
		t.failed += expected - trained
	}
	t.check("batches trained", trained == expected, fmt.Sprintf("%d of %d", trained, expected))
}

func (t *tally) check(name string, ok bool, detail string) {
	t.attempted++
	if !ok {
		t.failed++
	}
	// One entry per name: a repeated check keeps its first failure.
	for i := range t.checks {
		if t.checks[i].Name == name {
			if t.checks[i].OK && !ok {
				t.checks[i] = check{name, ok, detail}
			}
			return
		}
	}
	t.checks = append(t.checks, check{name, ok, detail})
}

// tailValue is the percentile reported next to a median (see
// tailPercentile).
type tailValue struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// epochBudget is one traced epoch's stage budget: where the wall time
// went, and whether the trace's view agrees with the engine's own.
type epochBudget struct {
	Epoch         int     `json:"epoch"`
	SampleBusyS   float64 `json:"sample_busy_s"`
	ExtractBusyS  float64 `json:"extract_busy_s"`
	TrainBusyS    float64 `json:"train_busy_s"`
	ReleaseBusyS  float64 `json:"release_busy_s"`
	WallS         float64 `json:"wall_s"`
	EngineWallS   float64 `json:"engine_wall_s"`
	OverlapFactor float64 `json:"overlap_factor"`
	Critical      string  `json:"critical_stage"`
	CriticalShare float64 `json:"critical_share"`
	OutOfOrder    int     `json:"out_of_order"`
	Reconciles    bool    `json:"reconciles"`
}

// runResult is one workload run: the contract line's content plus
// everything needed to interpret and compare it.
type runResult struct {
	Workload string                 `json:"workload"`
	Why      string                 `json:"why"`
	Seed     uint64                 `json:"seed"`
	Traced   bool                   `json:"traced"`
	Smoke    bool                   `json:"smoke,omitempty"`
	Config   resolvedConfig         `json:"config"`
	Env      envStamp               `json:"env"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Reported are measured but not gated (see reportedOnly).
	Reported  map[string]metricValue `json:"reported,omitempty"`
	Samples   map[string][]float64   `json:"samples,omitempty"`
	EpochTail *tailValue             `json:"epoch_s_tail,omitempty"`

	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Checks      []check `json:"checks"`
	// LossHash is the FNV-1a hash of the full step-loss sequence of a
	// real-training workload: equal hashes mean bit-identical training.
	LossHash       string        `json:"loss_hash,omitempty"`
	DirectDegraded int64         `json:"direct_degraded"`
	Budget         []epochBudget `json:"stage_budget,omitempty"`
	TraceFile      string        `json:"trace_file,omitempty"`
	Notes          []string      `json:"notes,omitempty"`

	peakNoted bool // settle's "no peak reset" note is already in Notes
}

func (r *runResult) finish(t *tally) {
	r.Attempted, r.Failed, r.Checks = t.attempted, t.failed, t.checks
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.FailedShare = float64(r.Failed) / float64(r.Attempted)
}

// timings are wall-clock samples, each with the machine-speed index that
// applied while it was taken (refkernel.go); index 1 leaves a sample as
// wall time.
type timings struct{ wall, index []float64 }

func (t *timings) add(wall, index float64) {
	t.wall = append(t.wall, wall)
	t.index = append(t.index, index)
}

// normalised returns every sample divided by its index: the time the same
// work takes on the undisturbed reference sandbox.
func (t timings) normalised() []float64 {
	out := make([]float64, len(t.wall))
	for i, w := range t.wall {
		out[i] = w / t.index[i]
	}
	return out
}

// measured is what an end-to-end run measured, before it is reduced to
// metrics.
type measured struct {
	setups    timings   // every set-up, s
	steady    timings   // every steady epoch, s
	cold      timings   // epoch 0 of every round (tenant), s
	makespans []float64 // every round, wall s
	mem       memWindow // allocation over the steady epochs
	batches   int       // batches trained in them
	peaks     []float64 // peak RSS of every round, MB
}

// endToEndMetrics reduces a run's samples to the gated metrics.
//
// The three timings are medians of normalised samples: each set-up and
// each epoch is divided by the reference kernel's index around it, so a
// phase in which the shared host runs everything 1.5 times slower moves
// sample and index together and the metric stays. The wall-clock medians
// are reported beside them, with the median index.
func (r *runResult) endToEndMetrics(m measured) {
	setup, steady, cold := m.setups.normalised(), m.steady.normalised(), m.cold.normalised()
	r.Samples = map[string][]float64{"setup_s": setup, "epoch_s": steady, "cold_epoch_s": cold,
		"setup_wall_s": m.setups.wall, "epoch_wall_s": m.steady.wall, "cold_epoch_wall_s": m.cold.wall,
		"epoch_ref_index": m.steady.index, "makespan_s": m.makespans, "rss_peak_mb": m.peaks}
	if p, v, ok := tailPercentile(steady); ok {
		r.EpochTail = &tailValue{p, v}
	}
	batches := float64(max(m.batches, 1))
	r.Metrics = metricSet{
		"setup_s":          median(setup),
		"epoch_s":          median(steady),
		"cold_epoch_s":     median(cold),
		"allocs_per_batch": float64(m.mem.mallocs) / batches,
		"rss_peak_mb":      median(m.peaks),
	}.render(endToEnd)
	r.Reported = metricSet{
		"setup_wall_s":       median(m.setups.wall),
		"epoch_wall_s":       median(m.steady.wall),
		"cold_epoch_wall_s":  median(m.cold.wall),
		"makespan_s":         median(m.makespans),
		"ref_index":          median(append(append([]float64(nil), m.steady.index...), m.cold.index...)),
		"alloc_kb_per_batch": float64(m.mem.bytes) / 1024 / batches,
	}.render(reportedOnly)
}

func (r *runResult) correct() bool { return r.Failed == 0 }

// contractLine is the one JSON object a run prints as its last line of
// standard output.
func (r *runResult) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// print writes the human-readable report: every metric by name with its
// unit, sample counts for the timings, the checks, and the stage budget.
func (r *runResult) print(w io.Writer) {
	pass := "end-to-end, tracing off"
	defs := endToEnd
	if r.Traced {
		pass, defs = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d  (%s)\n   %s\n", r.Workload, r.Seed, pass, r.Why)
	for _, d := range defs {
		line := fmt.Sprintf("  %-36s %14.6g %s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if n := len(r.Samples[d.Name]); n > 0 {
			line += fmt.Sprintf("   (median of %d", n)
			if wall, ok := r.Reported[strings.TrimSuffix(d.Name, "_s")+"_wall_s"]; ok {
				line += fmt.Sprintf("; wall %.6g", wall.Value)
			}
			line += ")"
		}
		if d.Name == "epoch_s" && r.EpochTail != nil {
			line += fmt.Sprintf("  p%.0f=%.6g", r.EpochTail.Percentile, r.EpochTail.Value)
		}
		fmt.Fprintln(w, line)
	}
	if !r.Traced {
		for _, d := range reportedOnly[3:] {
			v := r.Reported[d.Name]
			fmt.Fprintf(w, "  %-36s %14.6g %s   (reported, not gated)\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  %-36s %14.6g ratio   (%d of %d)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	if r.LossHash != "" {
		fmt.Fprintf(w, "  step-loss hash %s\n", r.LossHash)
	}
	for _, b := range r.Budget {
		ok := "reconciles"
		if !b.Reconciles {
			ok = "DOES NOT RECONCILE"
		}
		fmt.Fprintf(w, "  budget epoch %d: sample %.3fs extract %.3fs train %.3fs release %.3fs | overlap %.2fx wall %.3fs (engine %.3fs) critical %s %.0f%% — %s\n",
			b.Epoch, b.SampleBusyS, b.ExtractBusyS, b.TrainBusyS, b.ReleaseBusyS,
			b.OverlapFactor, b.WallS, b.EngineWallS, b.Critical, 100*b.CriticalShare, ok)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED check %q: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resultFile is what the command writes: every run of every workload of
// one invocation. -compare reads two of them.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
