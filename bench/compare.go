package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one (workload, end-to-end metric) pairing of two results.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians over each side's runs
	Ratio                  float64 // New / Base
	Spread                 float64 // wider of the two sides' run-to-run spreads
	Bound                  float64
	Verdict                string
}

// judge decides one row. A metric is worse when its median moved the
// wrong way by more than bound (a share of the base). When either side's
// own runs spread wider than the bound the comparison cannot resolve a
// change of that size, so the row is unresolved — never "unchanged".
func judge(def metricDef, base, new []float64) compareRow {
	r := compareRow{Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
		Base: median(base), New: median(new)}
	r.Ratio = ratio(r.New, r.Base)
	r.Spread = max(spreadShare(base), spreadShare(new))
	loss := r.Ratio - 1 // share of the base lost, for "lower is better"
	if def.Better == "higher" {
		loss = 1 - r.Ratio
	}
	switch {
	case r.Spread > def.Bound:
		r.Verdict = verdictUnresolved
	case r.Base == 0 && r.New != 0 && def.Better == "lower":
		r.Verdict = verdictWorse
	case loss > def.Bound:
		r.Verdict = verdictWorse
	default:
		r.Verdict = verdictOK
	}
	return r
}

// values collects metric name → one value per untraced run, by workload.
func values(rf *resultFile, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range rf.Runs {
		if run.Traced != traced {
			continue
		}
		m := out[run.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[run.Workload] = m
		}
		for name, v := range run.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out
}

func compareResults(old, new *resultFile) []compareRow {
	a, b := values(old, false), values(new, false)
	var rows []compareRow
	for _, w := range workloads {
		if a[w.name] == nil || b[w.name] == nil {
			continue
		}
		for _, def := range endToEnd {
			row := judge(def, a[w.name][def.Name], b[w.name][def.Name])
			row.Workload = w.name
			rows = append(rows, row)
		}
	}
	return rows
}

// exactCounts are the replay pass's counts: serial, so they must repeat
// exactly between two runs of one commit on one seed.
var exactCounts = []string{"plan.ops_per_batch", "replay.reads_per_batch", "replay.featbuf_hits_per_batch"}

type runKey struct {
	workload string
	seed     uint64
	traced   bool
}

func byKey(rf *resultFile) map[runKey]*runResult {
	out := map[runKey]*runResult{}
	for _, r := range rf.Runs {
		out[runKey{r.Workload, r.Seed, r.Traced}] = r
	}
	return out
}

// identityLines reports, per (workload, seed) present on both sides,
// whether step-loss hashes and replay counts are identical.
func identityLines(old, new *resultFile) []string {
	other := byKey(new)
	var lines []string
	for _, r := range old.Runs {
		o, ok := other[runKey{r.Workload, r.Seed, r.Traced}]
		if !ok {
			continue
		}
		if !r.Traced && r.LossHash != "" {
			verdict := "identical"
			if r.LossHash != o.LossHash {
				verdict = fmt.Sprintf("DIFFER (%s vs %s)", r.LossHash, o.LossHash)
			}
			lines = append(lines, fmt.Sprintf("%s seed %d step-loss hash: %s", r.Workload, r.Seed, verdict))
		}
		if r.Traced {
			verdict := "identical"
			for _, name := range exactCounts {
				if r.Metrics[name].Value != o.Metrics[name].Value {
					verdict = fmt.Sprintf("DIFFER (%s %v vs %v)", name, r.Metrics[name].Value, o.Metrics[name].Value)
					break
				}
			}
			lines = append(lines, fmt.Sprintf("%s seed %d replay counts: %s", r.Workload, r.Seed, verdict))
		}
	}
	return lines
}

// compareFiles prints one row per (workload, metric) and returns a
// non-zero exit code when any row is worse.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{oldPath, newPath} {
		rf, err := readResultFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		files[i] = rf
	}
	return printComparison(files[0], files[1], stdout)
}

func printComparison(old, new *resultFile, stdout io.Writer) int {
	rows := compareResults(old, new)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tspread\tbound\tverdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f\t%.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, r.Ratio, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	tw.Flush()
	for _, l := range identityLines(old, new) {
		fmt.Fprintln(stdout, l)
	}
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "no workload has untraced runs in both files")
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d of %d rows worse\n", worse, len(rows))
		return 1
	}
	return 0
}
