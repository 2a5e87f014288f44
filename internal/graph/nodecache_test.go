package graph

import (
	"context"
	"testing"

	"gnndrive/internal/hostmem"
)

func TestStaticNeighborCacheHitsHubs(t *testing.T) {
	ds := buildTestDataset(t)
	budget := hostmem.NewBudget(1 << 20)
	c, err := NewStaticNeighborCache(ds, budget, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Node 3 has the highest degree and must be served from memory.
	reads := ds.Dev.Stats().Reads
	ns, wait, err := c.Reader(context.Background()).Neighbors(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wait != 0 || ds.Dev.Stats().Reads != reads {
		t.Fatal("hub read should be a cache hit")
	}
	if len(ns) != 3 {
		t.Fatalf("hub neighbors %v", ns)
	}
	c.Close() // idempotent
	if budget.Pinned() != 0 {
		t.Fatalf("pinned %d after close", budget.Pinned())
	}
}

// TestStaticNeighborCacheMissesReadDirect: with room for no list at all,
// every read goes to the device and still matches the raw lists.
func TestStaticNeighborCacheMissesReadDirect(t *testing.T) {
	ds := buildTestDataset(t)
	c, err := NewStaticNeighborCache(ds, hostmem.NewBudget(1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, raw := c.Reader(context.Background()), NewRawReader(ds)
	for v := int64(0); v < ds.NumNodes; v++ {
		reads := ds.Dev.Stats().Reads
		got, _, err := r.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := raw.Neighbors(v, nil)
		if len(want) > 0 && ds.Dev.Stats().Reads == reads {
			t.Fatalf("node %d: served without a device read", v)
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %v vs %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d: %v vs %v", v, got, want)
			}
		}
	}
}

func TestStaticNeighborCacheOOM(t *testing.T) {
	ds := buildTestDataset(t)
	budget := hostmem.NewBudget(100)
	if _, err := NewStaticNeighborCache(ds, budget, 1024); err == nil {
		t.Fatal("expected OOM")
	}
	if budget.Pinned() != 0 {
		t.Fatal("pin leaked")
	}
}
