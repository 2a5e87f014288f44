package sim

import (
	"sync"
	"testing"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/storage"
)

// burst submits n reads of one sector to d back to back. It returns how
// long after the first submit the last one completed, and how long the
// submits themselves took: a descheduled submitter delays the modeled
// arrivals, and with them every modeled finish, by that much at most.
func burst(t *testing.T, d *Device, n int) (drain, spread time.Duration) {
	t.Helper()
	var (
		mu   sync.Mutex
		last time.Time
		wg   sync.WaitGroup
	)
	done := func(r *storage.Request) {
		if r.Err != nil {
			t.Error(r.Err)
		}
		mu.Lock()
		last = time.Now()
		mu.Unlock()
		wg.Done()
	}
	reqs := make([]*storage.Request, n)
	for i := range reqs {
		reqs[i] = &storage.Request{Buf: make([]byte, 512), Off: int64(i%8) * 512, Done: done}
	}
	wg.Add(n)
	start := time.Now()
	for _, r := range reqs {
		d.Submit(r)
	}
	spread = time.Since(start)
	wg.Wait()
	return last.Sub(start), spread
}

// TestBacklogDrainsAtModeledRate: a channel with a queue is a FIFO server
// on the modeled clock, so 400 reads of 50 µs each drain in the modeled
// 20 ms — neither later (each timer overshoot used to become idle channel
// time, ≈ 2×) nor earlier than the pacing slack allows.
func TestBacklogDrainsAtModeledRate(t *testing.T) {
	const n = 400
	cfg := Config{ReadLatency: 50 * time.Microsecond, Channels: 1, SectorSize: 512, TimeScale: 1}
	d := testDevice(t, 1<<16, cfg)
	model := n * cfg.ReadLatency
	got, spread := burst(t, d, n)
	if got < model-errutil.PaceSlack {
		t.Fatalf("%d reads drained in %v, faster than the modeled %v less the %v slack", n, got, model, errutil.PaceSlack)
	}
	if got > model*5/4+spread {
		t.Fatalf("%d reads submitted over %v drained in %v, %.2f× the modeled %v (want ≤ 1.25×)",
			n, spread, got, float64(got-spread)/float64(model), model)
	}
}

// TestIdleChannelBanksNoCredit: time a channel spends idle is not owed
// back to a later burst, which is still served one read after another.
func TestIdleChannelBanksNoCredit(t *testing.T) {
	const n = 20
	cfg := Config{ReadLatency: 100 * time.Microsecond, Channels: 1, SectorSize: 512, TimeScale: 1}
	d := testDevice(t, 1<<16, cfg)
	if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got, _ := burst(t, d, n); got < n*cfg.ReadLatency-errutil.PaceSlack {
		t.Fatalf("%d reads after an idle spell drained in %v, want ≥ %v", n, got, n*cfg.ReadLatency-errutil.PaceSlack)
	}
}
