package device

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/nn"
	"gnndrive/internal/storage/storagetest"
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

// A transfer due within the pacing slack, with nothing pending before it,
// completes on the caller: done has run when CopyAsync returns.
func TestCopyAsyncCompletesDueTransferOnCaller(t *testing.T) {
	for _, cfg := range []Config{
		InstantConfig(),
		{Name: "dma", Kind: GPU, TransferBps: 100e6, TimeScale: 1}, // 100 µs per 10 kB
	} {
		d := testDev(t, cfg)
		ran := false
		d.CopyAsync(10_000, func() { ran = true })
		if !ran {
			t.Fatalf("%s: a due transfer had not completed when CopyAsync returned", cfg.Name)
		}
	}
}

// A due transfer submitted while an earlier completion is still running
// waits for it: completions never overtake one another.
func TestCopyAsyncDueWaitsBehindPending(t *testing.T) {
	cfg := Config{Name: "dma", Kind: GPU, TransferBps: 1e6, TimeScale: 1}
	d := testDev(t, cfg)
	started, release, second := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var firstDone atomic.Bool
	d.CopyAsync(2000, func() { // 2 ms: deferred to the timer
		close(started)
		<-release
		firstDone.Store(true)
	})
	<-started
	d.CopyAsync(0, func() { // due at once, but queued behind the first
		if !firstDone.Load() {
			t.Error("a due transfer completed before the pending one ahead of it")
		}
		close(second)
	})
	select {
	case <-second:
		t.Fatal("a due transfer completed on its caller while an earlier completion was running")
	default:
	}
	close(release)
	<-second
}

// Several submitters at once, with transfers both due and deferred: each
// submitter's completions run in its submission order, and Close returns
// only after every pending one has run.
func TestCopyAsyncConcurrentSubmitters(t *testing.T) {
	const (
		submitters = 4
		per        = 50
		size       = 2000 // 20 µs each: the backlog outgrows the slack
	)
	d := New(Config{Name: "dma", Kind: GPU, TransferBps: 100e6, TimeScale: 1})
	var mu sync.Mutex
	last := make([]int, submitters)
	var wg sync.WaitGroup
	for g := range submitters {
		last[g] = -1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				d.CopyAsync(size, func() {
					mu.Lock()
					defer mu.Unlock()
					if last[g] != i-1 {
						t.Errorf("submitter %d: completion %d after %d", g, i, last[g])
					}
					last[g] = i
				})
			}
		}()
	}
	wg.Wait()
	d.Close()
	mu.Lock()
	defer mu.Unlock()
	for g, i := range last {
		if i != per-1 {
			t.Errorf("submitter %d: %d of %d completions ran before Close returned", g, i+1, per)
		}
	}
	if got, want := d.BytesMoved(), int64(submitters*per*size); got != want {
		t.Errorf("BytesMoved %d, want %d", got, want)
	}
}

// TestCopyAsyncZeroAlloc pins steady transfers at zero allocations, both
// a due one completed on the caller and a deferred one the timer
// completes.
func TestCopyAsyncZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	inline := testDev(t, InstantConfig())
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() { inline.CopyAsync(100, fn) }); n != 0 {
		t.Errorf("a due transfer allocates %v times, want 0", n)
	}
	deferred := testDev(t, Config{Name: "dma", Kind: GPU, TransferBps: 1e6, TimeScale: 1})
	ch := make(chan struct{}, 1)
	signal := func() { ch <- struct{}{} }
	deferred.CopyAsync(1000, signal) // 1 ms, beyond the pacing slack
	if len(ch) != 0 {
		t.Fatal("a transfer beyond the slack completed on its caller")
	}
	<-ch
	copyWait := func() {
		deferred.CopyAsync(1000, signal)
		<-ch
	}
	if n := testing.AllocsPerRun(50, copyWait); n != 0 {
		t.Errorf("a deferred transfer allocates %v times, want 0", n)
	}
}

// TestComputeTimeZeroAlloc: the compute model allocates nothing per step.
func TestComputeTimeZeroAlloc(t *testing.T) {
	d := testDev(t, RTX3090())
	w := Work{Model: nn.GraphSAGE, Nodes: 1000, Edges: 5000, InDim: 128, Hidden: 256, Classes: 100, Layers: 3, Backward: true}
	if n := testing.AllocsPerRun(100, func() { d.ComputeTime(w) }); n != 0 {
		t.Fatalf("ComputeTime allocates %v times, want 0", n)
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
