package iobench

import (
	"context"
	"testing"

	"gnndrive/internal/storage/sim"
)

func testDev(t *testing.T) *sim.Device {
	t.Helper()
	d := NewDevice(1<<20, sim.InstantConfig())
	t.Cleanup(func() { d.Close() })
	return d
}

func TestSyncDirect(t *testing.T) {
	res, err := Run(context.Background(), testDev(t), Spec{FileBytes: 1 << 20, Reads: 500, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("bandwidth %v", res.Bandwidth)
	}
}

func TestSyncBuffered(t *testing.T) {
	res, err := Run(context.Background(), testDev(t), Spec{FileBytes: 1 << 20, Reads: 500, Threads: 2, Buffered: true, CachePool: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestAsyncDepths(t *testing.T) {
	for _, depth := range []int{1, 8, 64} {
		res, err := Run(context.Background(), testDev(t), Spec{FileBytes: 1 << 20, Reads: 500, Depth: depth})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.Bandwidth <= 0 {
			t.Fatalf("depth %d: bandwidth %v", depth, res.Bandwidth)
		}
	}
}

func TestAsyncBuffered(t *testing.T) {
	if _, err := Run(context.Background(), testDev(t), Spec{FileBytes: 1 << 20, Reads: 200, Depth: 4, Buffered: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBadSpecs(t *testing.T) {
	d := testDev(t)
	if _, err := Run(context.Background(), d, Spec{FileBytes: 0, Reads: 10, Threads: 1}); err == nil {
		t.Fatal("zero file accepted")
	}
	if _, err := Run(context.Background(), d, Spec{FileBytes: 1 << 20, Reads: 10}); err == nil {
		t.Fatal("neither threads nor depth rejected")
	}
}
