//go:build goexperiment.synctest

package device

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"gnndrive/internal/errutil"
)

// TestVirtualCopyBacklogDrainsAtModeledBandwidth: the DMA engine is a
// FIFO server on the modeled clock, so a backlog of transfers, each
// shorter than the pacing slack, moves its bytes in bytes ÷ TransferBps,
// within the slack of the model even when the engine stalls. The first
// transfer's callback holds the engine for 15 ms, a stand-in for a timer
// wake-up that overslept: the transfers queued behind it were due then,
// and the engine catches up instead of serving them as if they had
// arrived late. It runs on synctest's virtual clock
// (GOEXPERIMENT=synctest), so the drain reads the same on every run.
func TestVirtualCopyBacklogDrainsAtModeledBandwidth(t *testing.T) {
	const (
		n    = 400
		size = 10_000 // 100 µs each at 100 MB/s
	)
	cfg := Config{Name: "dma", Kind: GPU, MemBytes: 1 << 20, TransferBps: 100e6, TimeScale: 1}
	model := time.Duration(n * size / cfg.TransferBps * float64(time.Second))
	synctest.Run(func() {
		d := New(cfg)
		defer d.Close()
		var wg sync.WaitGroup
		wg.Add(n)
		start := time.Now()
		d.CopyAsync(size, func() {
			time.Sleep(15 * time.Millisecond)
			wg.Done()
		})
		for i := 1; i < n; i++ {
			d.CopyAsync(size, wg.Done)
		}
		wg.Wait()
		got := time.Since(start)
		t.Logf("%d transfers drained in %v (model %v)", n, got, model)
		if got < model-errutil.PaceSlack || got > model {
			t.Errorf("want the drain within [%v, %v]", model-errutil.PaceSlack, model)
		}
	})
}
