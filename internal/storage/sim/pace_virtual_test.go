//go:build goexperiment.synctest

package sim

import (
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/storage"
)

// These pins run on synctest's virtual clock, which stands still while
// any goroutine of the bubble can run: the submit loop takes no time and
// no timer wakes late, so a drain reads the same on every run and the
// model alone bounds it. Run them with
// GOEXPERIMENT=synctest go test -run Virtual ./...

// burst submits n reads of one sector to d back to back and returns how
// long after the first submit the last one completed. Call it inside a
// bubble. It waits on a channel, not a sync.WaitGroup: WaitGroup.Wait
// suspends the race detector's synchronisation tracking while it parks,
// so the bubble would not order the submitter's writes before the
// channel timer's callback, which synctest.Run's goroutine starts.
func burst(t *testing.T, d *Device, n int) time.Duration {
	t.Helper()
	var (
		mu   sync.Mutex
		last time.Time
		left = n
	)
	drained := make(chan struct{})
	done := func(r *storage.Request) {
		if r.Err != nil {
			t.Error(r.Err)
		}
		mu.Lock()
		defer mu.Unlock()
		last = time.Now()
		if left--; left == 0 {
			close(drained)
		}
	}
	reqs := make([]*storage.Request, n)
	for i := range reqs {
		reqs[i] = &storage.Request{Buf: make([]byte, 512), Off: int64(i%8) * 512, Done: done}
	}
	start := time.Now()
	for _, r := range reqs {
		d.Submit(r)
	}
	<-drained
	mu.Lock()
	defer mu.Unlock()
	return last.Sub(start)
}

// checkDrain fails t unless n reads drained in got, within the pacing
// slack of the modeled drain: a completion may lead its modeled finish
// by PaceSlack, never trail it.
func checkDrain(t *testing.T, n int, got, model time.Duration) {
	t.Helper()
	t.Logf("%d reads drained in %v (model %v)", n, got, model)
	if got < model-errutil.PaceSlack || got > model {
		t.Errorf("want the drain within [%v, %v]", model-errutil.PaceSlack, model)
	}
}

// TestVirtualBacklogDrainsAtModeledRate: a channel with a queue is a
// FIFO server on the modeled clock, so 400 reads of 50 µs each drain in
// the modeled 20 ms.
func TestVirtualBacklogDrainsAtModeledRate(t *testing.T) {
	const n = 400
	cfg := Config{ReadLatency: 50 * time.Microsecond, Channels: 1, SectorSize: 512, TimeScale: 1}
	synctest.Run(func() {
		d := New(1<<16, cfg)
		defer d.Close()
		checkDrain(t, n, burst(t, d, n), n*cfg.ReadLatency)
	})
}

// TestVirtualIdleChannelBanksNoCredit: time a channel spends idle is not
// owed back to a later burst, which is still served one read after
// another.
func TestVirtualIdleChannelBanksNoCredit(t *testing.T) {
	const n = 20
	cfg := Config{ReadLatency: 100 * time.Microsecond, Channels: 1, SectorSize: 512, TimeScale: 1}
	synctest.Run(func() {
		d := New(1<<16, cfg)
		defer d.Close()
		if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(10 * time.Millisecond)
		checkDrain(t, n, burst(t, d, n), n*cfg.ReadLatency)
	})
}
