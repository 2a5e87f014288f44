package main

import "testing"

// Self time is a span's duration minus the union of its children's
// intervals (overlapping children count once, children are clipped to the
// parent) minus its covered child time.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "batch", parent: noSpan, start: 0, end: 100},
		{name: "wait", parent: 0, start: 10, end: 40},
		{name: "copy", parent: 0, start: 30, end: 60},  // overlaps wait by 10
		{name: "copy", parent: 0, start: 35, end: 50},  // inside the union already
		{name: "copy", parent: 0, start: 90, end: 130}, // outlives the parent
		{name: "sample", parent: 0, start: 70, end: 80, covered: 6, calls: 3},
		{name: "inner", parent: 5, start: 72, end: 74},
	}
	got := selfTimes(spans)
	// batch: 100 - ([10,60) + [70,80) + [90,100)) = 100 - 70 = 30
	want := []int64{30, 30, 30, 15, 40, 10 - 2 - 6, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
	totals := spanTotals(spans, func(s span) bool { return s.name == "copy" })
	if c := totals["copy"]; c.n != 3 || c.dur != 30+15+40 || len(totals) != 1 {
		t.Errorf("copy totals = %+v (of %d names)", c, len(totals))
	}
}

func TestLanesSeparateOverlaps(t *testing.T) {
	starts := []int64{0, 5, 10, 20}
	ends := []int64{10, 15, 20, 30}
	got := lanes(starts, ends)
	want := []int{0, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes = %v, want %v", got, want)
		}
	}
}
