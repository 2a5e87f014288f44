//go:build goexperiment.synctest

package device

import (
	"testing"
	"testing/synctest"
	"time"

	"gnndrive/internal/errutil"
)

// TestVirtualCopyBacklogDrainsAtModeledBandwidth: the DMA engine is a
// FIFO server on the modeled clock, so a backlog of transfers, each
// shorter than the pacing slack, moves its bytes in bytes ÷ TransferBps,
// within the slack of the model even when its completions stall. The
// transfers submitted at once complete on the submitter while they are
// due within the slack, and the timer completes the rest. One deferred
// transfer's callback holds the timer for 15 ms, a stand-in for a timer
// wake-up that overslept: the transfers queued behind it were due by
// then, and the engine catches up instead of serving them as if they had
// arrived late. It runs on synctest's virtual clock
// (GOEXPERIMENT=synctest), so the drain reads the same on every run.
//
// The submitter waits on a channel, not a sync.WaitGroup: WaitGroup.Wait
// suspends the race detector's synchronisation tracking while it parks,
// so the bubble would not order the submitter's writes before the timer's
// callback, which synctest.Run's goroutine starts.
func TestVirtualCopyBacklogDrainsAtModeledBandwidth(t *testing.T) {
	const (
		n     = 400
		size  = 10_000 // 100 µs each at 100 MB/s
		stall = 10     // finishes at 1.1 ms, beyond the slack: deferred
	)
	cfg := Config{Name: "dma", Kind: GPU, MemBytes: 1 << 20, TransferBps: 100e6, TimeScale: 1}
	model := time.Duration(n * size / cfg.TransferBps * float64(time.Second))
	synctest.Run(func() {
		d := New(cfg)
		defer d.Close()
		drained := make(chan struct{})
		left := n // completions run one at a time, in order
		done := func() {
			if left--; left == 0 {
				close(drained)
			}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if i != stall {
				d.CopyAsync(size, done)
				continue
			}
			d.CopyAsync(size, func() {
				time.Sleep(15 * time.Millisecond)
				done()
			})
		}
		<-drained
		got := time.Since(start)
		t.Logf("%d transfers drained in %v (model %v)", n, got, model)
		if got < model-errutil.PaceSlack || got > model {
			t.Errorf("want the drain within [%v, %v]", model-errutil.PaceSlack, model)
		}
	})
}
