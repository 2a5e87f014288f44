package iobench

import (
	"context"
	"io"
	"strings"
	"testing"

	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

func testDev(t *testing.T) *sim.Device {
	t.Helper()
	d := sim.New(1<<20, sim.InstantConfig())
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

// Every backend name the CLI offers reaches a backend: linuring both where
// the kernel grants io_uring and, vetoed, through its file fallback.
func TestOpenByName(t *testing.T) {
	for _, tc := range []struct{ name, veto, want string }{
		{"sim", "", ""},
		{"file", "", "backend: file"},
		{"linuring", "", "backend: linuring"},
		{"linuring", "1", "serving via file"},
	} {
		t.Run(tc.name+"/veto="+tc.veto, func(t *testing.T) {
			t.Setenv(linuring.EnvDisable, tc.veto)
			var out strings.Builder
			dev, closeDev, err := Open(&out, tc.name, "", 1<<20, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer closeDev()
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("Open printed %q, want %q", out.String(), tc.want)
			}
			if _, err := Run(context.Background(), dev, Spec{FileBytes: 1 << 20, Reads: 64, Depth: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, _, err := Open(io.Discard, "nvme", "", 1<<20, 0); err == nil {
		t.Fatal("unknown backend name opened")
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
	dev, closeDev, err := Open(io.Discard, "sim", "", 4<<20, scale)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDev()
	var best float64
	for run := uint64(1); run <= 3 && best < 0.6; run++ {
		res, err := Run(context.Background(), dev, Spec{FileBytes: 4 << 20, Reads: 8000, Depth: 64, Seed: run})
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, res.Bandwidth/ceiling)
	}
	if best < 0.6 {
		t.Fatalf("depth 64 reached at best %.2f of the modeled %.1f MB/s ceiling (want ≥ 0.6)", best, ceiling/1e6)
	}
}
