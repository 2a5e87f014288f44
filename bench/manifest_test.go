package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is the contract the driver reads;
// the tables in this package are what the benchmark does. They must say
// the same thing.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, epoch counts are sized for %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v", m.Paths)
	}
	var driven []workload
	for _, w := range workloads {
		if w.driver {
			driven = append(driven, w)
		}
	}
	if len(m.Workloads) != len(driven) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table for the driver", len(m.Workloads), len(driven))
	}
	for i, w := range driven {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs table %q %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := m.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs table %+v", i, g, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := m.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs table %+v", i, g, d)
		}
	}
}
