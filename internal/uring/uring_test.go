package uring

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

var ctx = context.Background()

func testRing(t *testing.T, depth int) (*sim.Device, *Ring) {
	t.Helper()
	d := sim.New(1<<16, sim.InstantConfig())
	t.Cleanup(func() { d.Close() })
	return d, NewRing(d, depth)
}

func TestQueueFlushWaitRoundTrip(t *testing.T) {
	d, r := testRing(t, 8)
	want := make([]byte, 512)
	for i := range want {
		want[i] = byte(i)
	}
	d.WriteAt(want, 4096)
	buf := make([]byte, 512)
	if err := r.QueueReadCtx(ctx, buf, 4096, 99); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	c := r.WaitCQE()
	if c.Err != nil || c.User != 99 {
		t.Fatalf("cqe %+v", c)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("payload mismatch")
	}
	if r.Inflight() != 0 {
		t.Fatalf("inflight %d after drain", r.Inflight())
	}
}

func TestDirectAlignmentEnforced(t *testing.T) {
	_, r := testRing(t, 4)
	if err := r.QueueReadCtx(ctx, make([]byte, 100), 0, 0); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned length: err %v, want storage.ErrUnaligned", err)
	}
	if err := r.QueueReadCtx(ctx, make([]byte, 512), 7, 0); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned offset: err %v, want storage.ErrUnaligned", err)
	}
	if err := r.QueueBufferedReadCtx(ctx, make([]byte, 100), 7, 0); err != nil {
		t.Fatalf("buffered read should allow any alignment: %v", err)
	}
	r.Flush()
	r.WaitCQE()
}

func TestDepthManyInflight(t *testing.T) {
	_, r := testRing(t, 64)
	for i := 0; i < 64; i++ {
		if err := r.QueueReadCtx(ctx, make([]byte, 512), int64(i)*512, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	if r.Inflight() != 64 {
		t.Fatalf("inflight %d want 64", r.Inflight())
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		c := r.WaitCQE()
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		seen[c.User] = true
	}
	if len(seen) != 64 {
		t.Fatalf("drained %d unique completions", len(seen))
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	d := sim.New(1<<16, sim.Config{ReadLatency: 5 * time.Millisecond, Channels: 1, SectorSize: 512, TimeScale: 1})
	defer d.Close()
	r := NewRing(d, 1)
	if err := r.QueueReadCtx(ctx, make([]byte, 512), 0, 1); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	done := make(chan struct{})
	go func() {
		// Must block until the first completes and is collected... but
		// collection happens below; the device completion frees the CQ
		// slot only after WaitCQE. Verify ordering via the channel.
		if err := r.QueueReadCtx(ctx, make([]byte, 512), 512, 2); err != nil {
			t.Error(err)
		}
		r.Flush()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second queue should have blocked at depth 1")
	case <-time.After(2 * time.Millisecond):
	}
	first := r.WaitCQE()
	if first.User != 1 {
		t.Fatalf("first cqe user %d", first.User)
	}
	<-done
	r.WaitCQE()
}

func TestPeekCQE(t *testing.T) {
	_, r := testRing(t, 4)
	if _, ok := r.PeekCQE(); ok {
		t.Fatal("peek on empty ring")
	}
	if err := r.QueueReadCtx(context.Background(), make([]byte, 512), 0, 5); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	deadline := time.Now().Add(time.Second)
	for {
		if c, ok := r.PeekCQE(); ok {
			if c.User != 5 {
				t.Fatalf("user %d", c.User)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("completion never arrived")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestErrorCQEOnBadRange(t *testing.T) {
	_, r := testRing(t, 4)
	if err := r.QueueReadCtx(ctx, make([]byte, 512), 1<<16, 3); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	c := r.WaitCQE()
	if c.Err == nil || c.User != 3 {
		t.Fatalf("cqe %+v, want range error", c)
	}
}

// fakeBatchDev records how submissions arrive: SubmitBatch calls with
// their widths versus individual Submit calls, completing every request
// inline.
type fakeBatchDev struct {
	*sim.Device
	batches [][]int64 // offsets per SubmitBatch call
	singles int
}

func (d *fakeBatchDev) Submit(req *storage.Request) {
	d.singles++
	d.Device.Submit(req)
}

func (d *fakeBatchDev) SubmitBatch(reqs []*storage.Request) {
	offs := make([]int64, len(reqs))
	for i, r := range reqs {
		offs[i] = r.Off
		d.Device.Submit(r)
	}
	d.batches = append(d.batches, offs)
}

// Queue + Flush must deliver every staged read in one SubmitBatch call
// (one io_uring_enter on the linuring backend), and WaitCQE must then
// observe every completion.
func TestQueueFlushBatchesSubmission(t *testing.T) {
	inner := sim.New(1<<16, sim.InstantConfig())
	t.Cleanup(func() { inner.Close() })
	dev := &fakeBatchDev{Device: inner}
	r := NewRing(dev, 16)
	const n = 8
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 512)
		if err := r.QueueReadCtx(ctx, bufs[i], int64(i)*512, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(dev.batches) != 0 || dev.singles != 0 {
		t.Fatalf("batches %v singles %d before flush, want nothing submitted", dev.batches, dev.singles)
	}
	if got := r.Flush(); got != n {
		t.Fatalf("Flush submitted %d, want %d", got, n)
	}
	if len(dev.batches) != 1 || len(dev.batches[0]) != n || dev.singles != 0 {
		t.Fatalf("batches %v singles %d, want one %d-wide batch", dev.batches, dev.singles, n)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		c := r.WaitCQE()
		if c.Err != nil {
			t.Fatalf("cqe %d: %v", c.User, c.Err)
		}
		seen[c.User] = true
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct completions, want %d", len(seen), n)
	}
	if got := r.Flushes(); got != 1 {
		t.Fatalf("Flushes %d, want 1", got)
	}
	// Empty flush is free and uncounted.
	if got := r.Flush(); got != 0 {
		t.Fatalf("empty Flush submitted %d", got)
	}
	if got := r.Flushes(); got != 1 {
		t.Fatalf("Flushes %d after empty flush, want 1", got)
	}
}

// gateDev holds every submitted request until release completes it, so a
// test decides exactly when completions arrive.
type gateDev struct {
	storage.Backend
	held chan *storage.Request
}

func (d *gateDev) Submit(req *storage.Request) { d.held <- req }

func (d *gateDev) release() {
	req := <-d.held
	req.Done(req)
}

// Depth counts completed-but-uncollected requests too: a full ring stays
// full when the device completes a read, and only collecting its CQE lets
// the next Queue through.
func TestQueueBlocksAtDepthUntilCollected(t *testing.T) {
	inner, _ := testRing(t, 1)
	const depth = 4
	dev := &gateDev{Backend: inner, held: make(chan *storage.Request, depth)}
	r := NewRing(dev, depth)
	for i := 0; i < depth; i++ {
		if err := r.QueueReadCtx(ctx, make([]byte, 512), int64(i)*512, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	queued := make(chan struct{})
	go func() {
		if err := r.QueueReadCtx(ctx, make([]byte, 512), 0, depth); err != nil {
			t.Error(err)
		}
		close(queued)
	}()
	stillBlocked := func(when string) {
		t.Helper()
		select {
		case <-queued:
			t.Fatalf("Queue returned %s, with %d requests held at depth %d", when, r.Inflight(), depth)
		case <-time.After(20 * time.Millisecond):
		}
	}
	stillBlocked("with every read in flight")
	dev.release()
	stillBlocked("after a completion nobody collected")
	if c := r.WaitCQE(); c.Err != nil {
		t.Fatal(c.Err)
	}
	<-queued
	if got := r.Inflight(); got != depth {
		t.Fatalf("Inflight %d after one collect and one queue, want %d", got, depth)
	}
	r.Flush()
	for i := 0; i < depth; i++ {
		dev.release()
		r.WaitCQE()
	}
}

// poolDev completes requests on a pool of goroutines, in whatever order
// they get to them, and records the most requests it ever held at once.
type poolDev struct {
	storage.Backend
	work        chan *storage.Request
	out, maxOut atomic.Int64
}

func newPoolDev(t *testing.T, inner storage.Backend, workers int) *poolDev {
	d := &poolDev{Backend: inner, work: make(chan *storage.Request)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range d.work {
				runtime.Gosched()
				req.Latency = time.Microsecond
				d.out.Add(-1)
				req.Done(req)
			}
		}()
	}
	t.Cleanup(func() { close(d.work); wg.Wait() })
	return d
}

func (d *poolDev) Submit(req *storage.Request) {
	n := d.out.Add(1)
	for m := d.maxOut.Load(); n > m && !d.maxOut.CompareAndSwap(m, n); m = d.maxOut.Load() {
	}
	d.work <- req
}

// TestRingConcurrentCompletionStress (run under -race) has completions
// arrive from eight goroutines while the owner queues at depth and three
// collectors — two blocking in WaitCQE, one polling PeekCQE — drain the
// CQ: every read is delivered exactly once, the ring never holds more
// than depth, and it ends empty.
func TestRingConcurrentCompletionStress(t *testing.T) {
	const depth, n = 8, 5000
	inner, _ := testRing(t, 1)
	dev := newPoolDev(t, inner, 8)
	r := NewRing(dev, depth)
	seen := make([]atomic.Int32, n)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(poll bool) {
			defer wg.Done()
			// Each claim stands for one CQE still to come, so no collector
			// waits for a completion another one takes.
			for claimed.Add(1) <= n {
				var cqe CQE
				if poll {
					for ok := false; !ok; cqe, ok = r.PeekCQE() {
						runtime.Gosched()
					}
				} else {
					cqe = r.WaitCQE()
				}
				if cqe.Err != nil || cqe.Latency != time.Microsecond {
					t.Errorf("cqe %+v", cqe)
				}
				seen[cqe.User].Add(1)
			}
		}(c == 0)
	}
	buf := make([]byte, 512)
	atDepth := 0
	for i := 0; i < n; i++ {
		if r.Inflight() >= depth {
			atDepth++ // this Queue waits for a collector
			r.Flush()
		}
		if err := r.QueueReadCtx(ctx, buf, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if got := r.Inflight(); got > depth {
			t.Fatalf("ring holds %d requests at depth %d", got, depth)
		}
		if i%3 == 0 {
			r.Flush()
		}
	}
	r.Flush()
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("read %d delivered %d times", i, got)
		}
	}
	if got := r.Inflight(); got != 0 {
		t.Fatalf("Inflight %d after every CQE was collected", got)
	}
	if got := dev.maxOut.Load(); got > depth {
		t.Fatalf("device held %d reads at once, ring depth %d", got, depth)
	}
	if atDepth == 0 {
		t.Fatal("the owner never found the ring full: the stress did not exercise the depth bound")
	}
}

// TestRingZeroAlloc pins the completion path: after warm-up, a wave of
// Queue → Flush → WaitCQE allocates nothing — no channel, no closure,
// no Request.
func TestRingZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, r := testRing(t, 8)
	buf := make([]byte, 512)
	wave := func() {
		for i := 0; i < r.Depth(); i++ {
			if err := r.QueueReadCtx(ctx, buf, int64(i)*512, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		r.Flush()
		for i := 0; i < r.Depth(); i++ {
			if c := r.WaitCQE(); c.Err != nil {
				t.Fatal(c.Err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		wave()
	}
	if a := testing.AllocsPerRun(200, wave); a != 0 {
		t.Fatalf("Queue→Flush→WaitCQE allocates %.1f per %d-read wave, want 0", a, r.Depth())
	}
}

// Queued reads recycle completed Requests; the queue path must fully
// reinitialize a reused Request (no stale error or latency bleed).
func TestQueuedRequestReuseIsClean(t *testing.T) {
	_, r := testRing(t, 4)
	// First round: an out-of-bounds read leaves an error on the Request.
	if err := r.QueueReadCtx(ctx, make([]byte, 512), 1<<16, 1); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if c := r.WaitCQE(); c.Err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
	// Second round reuses the pooled Request and must complete clean.
	if err := r.QueueReadCtx(ctx, make([]byte, 512), 0, 2); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if c := r.WaitCQE(); c.Err != nil || c.User != 2 {
		t.Fatalf("reused request: %+v", c)
	}
}
