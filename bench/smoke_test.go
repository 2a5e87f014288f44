package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestSmoke runs every workload through both passes on the tiny dataset,
// so an API change that breaks the benchmark breaks the tier-1 tests and
// not the next performance PR.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", w.name, "-seed", "3", "-trace", fmt.Sprint(trace), "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := got.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q", w.name, trace, d.Name, v.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}
