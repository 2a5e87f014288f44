//go:build goexperiment.synctest

package experiments

import (
	"context"
	"testing"
	"testing/synctest"

	"gnndrive/internal/storage/sim"
	"gnndrive/internal/trainsim"
)

// TestVirtualAsyncDepthSaturatesSim is Appendix B's claim made
// executable: asynchronous reads at depth 64 keep the simulated SSD's
// channels busy, so one thread reaches most of the modeled ceiling,
// Channels × 512 B per service time. It runs at Fig. B.1's time scale, 2,
// on synctest's virtual clock (GOEXPERIMENT=synctest), where no timer
// wakes late and the host's speed does not enter the rate: the share
// reads the same on every run, with or without the race detector.
func TestVirtualAsyncDepthSaturatesSim(t *testing.T) {
	const scale = 2
	cfg := sim.DefaultConfig()
	svc := (cfg.ReadLatency.Seconds() + 512/cfg.BytesPerSec) * scale
	ceiling := float64(cfg.Channels) * 512 / svc
	synctest.Run(func() {
		dev, closeDev, err := trainsim.OpenBackend(trainsim.Config{Backend: "sim", Scale: scale}, 4<<20)
		if err != nil {
			t.Error(err)
			return
		}
		defer closeDev()
		bw, _, err := runIO(context.Background(), dev, ioSpec{depth: 64, seed: 1}, 8000)
		if err != nil {
			t.Error(err)
			return
		}
		share := bw / ceiling
		t.Logf("depth 64 reached %.4f of the modeled %.1f MB/s ceiling", share, ceiling/1e6)
		if share < 0.9 {
			t.Errorf("want a share ≥ 0.9")
		}
	})
}
