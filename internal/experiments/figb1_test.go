package experiments

import (
	"context"
	"testing"

	"gnndrive/internal/storage/sim"
)

func testDev(t *testing.T) *sim.Device {
	t.Helper()
	d := sim.New(1<<20, sim.InstantConfig())
	t.Cleanup(func() { d.Close() })
	return d
}

func TestSyncDirect(t *testing.T) {
	bw, _, err := runIO(context.Background(), testDev(t), ioSpec{threads: 4}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 {
		t.Fatalf("bandwidth %v", bw)
	}
}

func TestSyncBuffered(t *testing.T) {
	bw, _, err := runIO(context.Background(), testDev(t), ioSpec{threads: 2, buffered: true}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 {
		t.Fatal("no throughput")
	}
}

func TestAsyncDepths(t *testing.T) {
	for _, depth := range []int{1, 8, 64} {
		bw, _, err := runIO(context.Background(), testDev(t), ioSpec{depth: depth}, 500)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if bw <= 0 {
			t.Fatalf("depth %d: bandwidth %v", depth, bw)
		}
	}
}

func TestAsyncBuffered(t *testing.T) {
	if _, _, err := runIO(context.Background(), testDev(t), ioSpec{depth: 4, buffered: true}, 200); err != nil {
		t.Fatal(err)
	}
}
