package device

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/nn"
)

func testDev(t *testing.T, cfg Config) *Device {
	t.Helper()
	d := New(cfg)
	t.Cleanup(func() { d.Close() })
	return d
}

func TestAllocFreeOOM(t *testing.T) {
	cfg := InstantConfig()
	cfg.MemBytes = 1000
	d := testDev(t, cfg)
	if err := d.Alloc("a", 800); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc("b", 300); !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	d.Free(800)
	if err := d.Alloc("c", 1000); err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 1000 {
		t.Fatalf("used %d", d.MemUsed())
	}
}

func TestCPUAllocAlwaysSucceeds(t *testing.T) {
	d := testDev(t, XeonCPU())
	if err := d.Alloc("huge", 1<<50); err != nil {
		t.Fatal("CPU device must not enforce device memory")
	}
}

func TestConcurrentAllocNeverOversubscribes(t *testing.T) {
	cfg := InstantConfig()
	cfg.MemBytes = 1000
	d := testDev(t, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Alloc("x", 100)
		}()
	}
	wg.Wait()
	if d.MemUsed() > 1000 {
		t.Fatalf("oversubscribed: %d", d.MemUsed())
	}
}

func TestCopyAsyncCompletesInOrder(t *testing.T) {
	d := testDev(t, InstantConfig())
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		i := i
		d.CopyAsync(100, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("DMA completions out of order: %v", order)
		}
	}
}

func TestCopySyncModelsBandwidth(t *testing.T) {
	cfg := Config{Name: "slow", Kind: GPU, MemBytes: 1 << 20, TransferBps: 1e6, TimeScale: 1}
	d := testDev(t, cfg)
	el := d.CopySync(5000) // 5ms at 1 MB/s
	if el < 4*time.Millisecond {
		t.Fatalf("transfer took %v, want ~5ms", el)
	}
	if d.BytesMoved() != 5000 {
		t.Fatalf("bytes moved %d", d.BytesMoved())
	}
	if d.TransferBusy() < 4*time.Millisecond {
		t.Fatalf("transfer busy %v", d.TransferBusy())
	}
}

func TestComputeTimeScalesWithWork(t *testing.T) {
	cfg := RTX3090()
	d := testDev(t, cfg)
	small := Work{Model: nn.GraphSAGE, Nodes: 1000, Edges: 5000, InDim: 128, Hidden: 256, Classes: 100, Layers: 3, Backward: true}
	big := small
	big.Nodes *= 4
	big.Edges *= 4
	if d.ComputeTime(big) <= d.ComputeTime(small) {
		t.Fatal("more work must take longer")
	}
	gat := small
	gat.Model = nn.GAT
	if d.ComputeTime(gat) <= d.ComputeTime(small) {
		t.Fatal("GAT must cost more than SAGE")
	}
	infer := small
	infer.Backward = false
	if d.ComputeTime(infer) >= d.ComputeTime(small) {
		t.Fatal("inference must cost less than training")
	}
}

func TestCPUGATPenaltyExceedsGPU(t *testing.T) {
	gpu := testDev(t, RTX3090())
	cpu := testDev(t, XeonCPU())
	w := Work{Model: nn.GAT, Nodes: 5000, Edges: 40000, InDim: 128, Hidden: 256, Classes: 172, Layers: 3, Backward: true}
	ratio := float64(cpu.ComputeTime(w)) / float64(gpu.ComputeTime(w))
	if ratio < 8 {
		t.Fatalf("CPU/GPU GAT ratio %.1f, paper reports ~8-12x", ratio)
	}
	ws := w
	ws.Model = nn.GraphSAGE
	sageRatio := float64(cpu.ComputeTime(ws)) / float64(gpu.ComputeTime(ws))
	if sageRatio >= ratio {
		t.Fatal("GAT should be disproportionately slower on CPU than SAGE")
	}
}

func TestComputeAccountsBusyTime(t *testing.T) {
	cfg := RTX3090()
	cfg.TimeScale = 0.001
	d := testDev(t, cfg)
	w := Work{Model: nn.GCN, Nodes: 2000, Edges: 10000, InDim: 128, Hidden: 256, Classes: 50, Layers: 3, Backward: true}
	el := d.Compute(w)
	if el <= 0 || d.ComputeBusy() != el {
		t.Fatalf("elapsed %v busy %v", el, d.ComputeBusy())
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	d := testDev(t, InstantConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Free(1)
}
