package core

import (
	"context"
	"testing"

	"gnndrive/internal/device"
)

func TestGPUDirectExtractionCorrectAndStagingFree(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.GPUDirect = true
	opts.RealTrain = true
	opts.Hidden = 32
	pinnedBefore := rig.budget.Pinned()
	e := newEngine(t, rig, opts)
	// GDS mode must not pin a host staging buffer — only indptr+labels.
	metaPins := rig.ds.IndptrBytes() + int64(len(rig.ds.Labels))*4
	if got := rig.budget.Pinned() - pinnedBefore; got != metaPins {
		t.Fatalf("host pins %d, want only metadata %d (no staging)", got, metaPins)
	}
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 {
		t.Fatal("no batches")
	}
	// 4 KiB granularity: bytes read must show heavy redundancy for the
	// tiny dataset's 128 B features (joint reads share windows, so the
	// amplification is bounded below by a conservative 3x, not 32x).
	if res.BytesRead < 3*res.NodesExtracted*rig.ds.FeatBytes() {
		t.Fatalf("read %d bytes for %d nodes of %d B; GDS granularity not applied",
			res.BytesRead, res.NodesExtracted, rig.ds.FeatBytes())
	}
	// Extracted data must still be byte-correct.
	fb := e.FeatureBuffer()
	checked := 0
	for v := int64(0); v < rig.ds.NumNodes && checked < 50; v++ {
		if !fb.Valid(v) {
			continue
		}
		want, err := rig.ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := fb.SlotData(fb.entries[v].slot)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d dim %d mismatch", v, j)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing valid to check")
	}
}

func TestGPUDirectRequiresGPU(t *testing.T) {
	cfg := device.XeonCPU()
	cfg.TimeScale = 0
	cfg.Throughput = 0
	rig := newRig(t, cfg, 64<<20)
	opts := testOpts()
	opts.GPUDirect = true
	if _, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts); err == nil {
		t.Fatal("GPUDirect on a CPU device must fail")
	}
	if rig.budget.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", rig.budget.Pinned())
	}
}
