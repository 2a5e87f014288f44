package experiments

import (
	"context"
	"testing"

	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
	"gnndrive/internal/trainsim"
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

// TestAsyncDepthSaturatesSim is Appendix B's claim made executable:
// asynchronous reads at depth 64 keep the simulated SSD's channels busy,
// so one thread reaches most of the modeled ceiling, Channels × 512 B per
// service time. It runs at Fig. B.1's time scale, 2, where depth 64 queues
// ≈ 1.6 ms of service per channel, more than one of the host's ≈ 1 ms
// timer wake-ups. A busy host can only slow a run down, never speed it up,
// so the device's reach is the best of up to three runs.
func TestAsyncDepthSaturatesSim(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("under the race detector the host CPU, not the modeled device, bounds the rate")
	}
	const scale = 2
	cfg := sim.DefaultConfig()
	svc := (cfg.ReadLatency.Seconds() + 512/cfg.BytesPerSec) * scale
	ceiling := float64(cfg.Channels) * 512 / svc
	dev, closeDev, err := trainsim.OpenBackend(trainsim.Config{Backend: "sim", Scale: scale}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDev()
	var best float64
	for run := uint64(1); run <= 3 && best < 0.6; run++ {
		bw, _, err := runIO(context.Background(), dev, ioSpec{depth: 64, seed: run}, 8000)
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, bw/ceiling)
	}
	if best < 0.6 {
		t.Fatalf("depth 64 reached at best %.2f of the modeled %.1f MB/s ceiling (want ≥ 0.6)", best, ceiling/1e6)
	}
}
