package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "epoch_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name      string
		def       metricDef
		base, new []float64
		want      string
	}{
		{"unchanged", lower, tight, tight, verdictOK},
		{"9% slower is inside the bound", lower, tight, scale(tight, 1.09), verdictOK},
		{"12% slower", lower, tight, scale(tight, 1.12), verdictWorse},
		{"faster", lower, tight, scale(tight, 0.5), verdictOK},
		{"higher-is-better fell 12%", higher, tight, scale(tight, 0.88), verdictWorse},
		{"higher-is-better rose", higher, tight, scale(tight, 1.5), verdictOK},
		{"spread wider than the bound", lower, []float64{1, 1.3, 0.8, 1.1, 0.9}, scale(tight, 1.5), verdictUnresolved},
		{"single runs have no spread", lower, []float64{1}, []float64{1.2}, verdictWorse},
	} {
		if got := judge(c.def, c.base, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (ratio %.3f spread %.3f), want %s", c.name, got.Verdict, got.Ratio, got.Spread, c.want)
		}
	}
}

func TestCompareReportsIdentityAndExitCode(t *testing.T) {
	mk := func(epoch float64, hash string, ops float64) *resultFile {
		e2e := metricSet{"setup_s": 1, "epoch_s": epoch, "cold_epoch_s": 1,
			"allocs_per_batch": 10, "alloc_kb_per_batch": 10, "rss_peak_mb": 50}.render(endToEnd)
		traced := metricSet{"plan.ops_per_batch": ops}.render(perLayer)
		return &resultFile{Runs: []*runResult{
			{Workload: "real_inorder_ckpt", Seed: 1, Metrics: e2e, LossHash: hash},
			{Workload: "real_inorder_ckpt", Seed: 1, Traced: true, Metrics: traced},
		}}
	}
	var out bytes.Buffer
	if code := printComparison(mk(1, "h1", 7), mk(1.05, "h1", 7), &out); code != 0 {
		t.Errorf("exit %d for a 5%% change\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "step-loss hash: identical") || !strings.Contains(out.String(), "replay counts: identical") {
		t.Errorf("identity lines missing:\n%s", out.String())
	}
	out.Reset()
	if code := printComparison(mk(1, "h1", 7), mk(1.5, "h2", 8), &out); code != 1 {
		t.Errorf("exit %d for a 50%% slowdown", code)
	}
	if n := strings.Count(out.String(), "DIFFER"); n != 2 {
		t.Errorf("%d DIFFER lines, want 2:\n%s", n, out.String())
	}
}
