package pagecache

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
)

func testCache(t *testing.T, devSize int64, budget int64) (*sim.Device, *hostmem.Budget, *Cache) {
	t.Helper()
	d := sim.New(devSize, sim.InstantConfig())
	t.Cleanup(func() { d.Close() })
	b := hostmem.NewBudget(budget)
	return d, b, New(d, b)
}

func fillPattern(d *sim.Device, base, size int64) []byte {
	img := make([]byte, size)
	for i := range img {
		img[i] = byte((int64(i) + base) * 131)
	}
	d.WriteAt(img, base)
	return img
}

func TestReadThroughCache(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 1<<20)
	img := fillPattern(d, 8192, 64*1024)
	f := c.NewFile(8192, 64*1024)
	buf := make([]byte, 1000)
	if _, err := f.ReadCtx(context.Background(), 5000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img[5000:6000]) {
		t.Fatal("cached read returned wrong bytes")
	}
	// Second read of the same range: all hits, no new misses.
	before := c.Stats()
	if _, err := f.ReadCtx(context.Background(), 5000, buf); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("re-read caused %d new misses", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("re-read should register hits")
	}
}

func TestReadSpanningPages(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 1<<20)
	img := fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, 3*PageSize+17)
	off := int64(PageSize - 9)
	if _, err := f.ReadCtx(context.Background(), off, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img[off:off+int64(len(buf))]) {
		t.Fatal("spanning read mismatch")
	}
}

func TestReadOutOfFileBounds(t *testing.T) {
	_, _, c := testCache(t, 1<<20, 1<<20)
	f := c.NewFile(0, 1000)
	if _, err := f.ReadCtx(context.Background(), 990, make([]byte, 20)); err == nil {
		t.Fatal("expected bounds error")
	}
	if _, err := f.ReadCtx(context.Background(), -1, make([]byte, 1)); err == nil {
		t.Fatal("expected bounds error for negative offset")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// Budget allows ~4 pages of cache; stream 32 pages through.
	d, b, c := testCache(t, 1<<20, 4*PageSize)
	fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, PageSize)
	for i := int64(0); i < 32; i++ {
		if _, err := f.ReadCtx(context.Background(), i*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ResidentBytes(); got > 4*PageSize {
		t.Fatalf("resident %d exceeds allowance %d", got, 4*PageSize)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
	_ = b
}

func TestPinningShrinksCache(t *testing.T) {
	d, b, c := testCache(t, 1<<20, 16*PageSize)
	fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, PageSize)
	for i := int64(0); i < 10; i++ {
		if _, err := f.ReadCtx(context.Background(), i*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.ResidentBytes() != 10*PageSize {
		t.Fatalf("resident %d", c.ResidentBytes())
	}
	// Pin most of the budget: the next fault must trigger eviction down
	// to the new allowance.
	b.MustPin("buffer", 14*PageSize)
	if _, err := f.ReadCtx(context.Background(), 20*PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if got, allow := c.ResidentBytes(), b.CachePool(); got > allow {
		t.Fatalf("resident %d exceeds shrunk allowance %d", got, allow)
	}
}

func TestLRUKeepsHotPages(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 3*PageSize)
	fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, PageSize)
	mustRead := func(page int64) {
		t.Helper()
		if _, err := f.ReadCtx(context.Background(), page*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	mustRead(0)
	mustRead(1)
	mustRead(2)
	mustRead(0) // touch page 0: page 1 becomes LRU
	mustRead(9) // evicts page 1
	before := c.Stats()
	mustRead(0) // should still be resident
	if c.Stats().Misses != before.Misses {
		t.Fatal("hot page 0 was evicted; LRU order wrong")
	}
	mustRead(1) // must miss
	if c.Stats().Misses != before.Misses+1 {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestTwoFilesShareOneCache(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 2*PageSize)
	fillPattern(d, 0, 1<<20)
	topo := c.NewFile(0, 8*PageSize)
	feat := c.NewFile(8*PageSize, 64*PageSize)
	buf := make([]byte, PageSize)
	if _, err := topo.ReadCtx(context.Background(), 0, buf); err != nil {
		t.Fatal(err)
	}
	// Stream the feature file: must evict the topology page (contention).
	for i := int64(0); i < 16; i++ {
		if _, err := feat.ReadCtx(context.Background(), i*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Misses
	if _, err := topo.ReadCtx(context.Background(), 0, buf); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != before+1 {
		t.Fatal("feature streaming should have evicted the topology page")
	}
}

func TestConcurrentReadersCoalesceAndAgree(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 1<<20)
	img := fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 2048)
			for i := 0; i < 50; i++ {
				off := int64((g*37 + i*911) % (1 << 19))
				if _, err := f.ReadCtx(context.Background(), off, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, img[off:off+2048]) {
					errs <- bytes.ErrTooLarge // sentinel: mismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDropAll(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 1<<20)
	fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, PageSize)
	for i := int64(0); i < 5; i++ {
		if _, err := f.ReadCtx(context.Background(), i*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	c.DropAll()
	if c.ResidentBytes() != 0 {
		t.Fatalf("resident %d after DropAll", c.ResidentBytes())
	}
}

// Property: cached reads always equal the device image regardless of
// cache-size pressure and access order — through the one-page read path
// and through a wave's pinned frames alike. The file starts 100 bytes
// into the device, so its last page is a clamped read whose tail must
// come back zeroed, not stale from the frame's previous page.
func TestCachedReadEqualsImage(t *testing.T) {
	const base, size = 100, 1<<18 - 100
	d, _, c := testCache(t, 1<<18, 2*PageSize)
	img := append(fillPattern(d, 0, 1<<18)[base:], make([]byte, base)...)
	f := c.NewFile(base, size)
	w := c.NewWave()
	fn := func(off uint32, ln uint16, picks []uint8) bool {
		o := int64(off) % size
		n := int64(ln)
		if o+n > size {
			n = size - o
		}
		buf := make([]byte, n)
		if _, err := f.ReadCtx(context.Background(), o, buf); err != nil || !bytes.Equal(buf, img[o:o+n]) {
			return false
		}
		pages := make([]int64, 0, len(picks))
		for _, p := range picks {
			pages = append(pages, int64(p)%64)
		}
		slices.Sort(pages)
		pages = slices.Compact(pages)
		if _, err := w.Pin(context.Background(), f, pages); err != nil {
			return false
		}
		defer w.Unpin()
		for _, no := range pages {
			if !bytes.Equal(w.Frame(no), img[no*PageSize:(no+1)*PageSize]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// stuckBackend simulates a device read that never completes unless the
// caller's context can interrupt it: ReadAt blocks forever, ReadAtCtx and
// a submitted request block until their ctx is cancelled, and a request
// submitted without one never completes. It pins the fault path's
// contract that the wave passes the caller's ctx INTO the device read —
// errutil.Retry only checks ctx between attempts, so a fault that dropped
// it would ride out the whole stuck read before noticing the
// cancellation.
type stuckBackend struct {
	*sim.Device
	entered chan struct{} // closed when the stuck read has started
	once    sync.Once
}

func (b *stuckBackend) ReadAt(p []byte, off int64) (time.Duration, error) {
	b.once.Do(func() { close(b.entered) })
	select {} // a ReadAt here means the ctx was dropped: block forever
}

func (b *stuckBackend) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	b.once.Do(func() { close(b.entered) })
	<-ctx.Done()
	return 0, ctx.Err()
}

func (b *stuckBackend) Submit(req *storage.Request) {
	b.once.Do(func() { close(b.entered) })
	if req.Ctx == nil {
		return // the ctx was dropped: never complete
	}
	go func() {
		<-req.Ctx.Done()
		req.Err = req.Ctx.Err()
		req.Done(req)
	}()
}

// TestFaultReadHonorsCancel is the regression test for the dropped-ctx
// fault path: cancelling the reader's context while a page fault is
// blocked inside the device read must abort the read promptly instead
// of waiting for the device — for the one-page fault, which reads
// synchronously, and for a wave, which submits a batch.
func TestFaultReadHonorsCancel(t *testing.T) {
	for name, read := range map[string]func(context.Context, *Cache, *File) error{
		"one page": func(ctx context.Context, _ *Cache, f *File) error {
			_, err := f.ReadCtx(ctx, 0, make([]byte, 100))
			return err
		},
		"wave": func(ctx context.Context, c *Cache, f *File) error {
			_, err := c.NewWave().Pin(ctx, f, []int64{0, 3, 4})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			dev := sim.New(1<<20, sim.InstantConfig())
			t.Cleanup(func() { dev.Close() })
			stuck := &stuckBackend{Device: dev, entered: make(chan struct{})}
			c := New(stuck, hostmem.NewBudget(1<<20))
			f := c.NewFile(0, 1<<20)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- read(ctx, c, f) }()

			<-stuck.entered // the fault is now blocked inside the device read
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled fault read returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled fault read still blocked: the fault path dropped the caller's ctx")
			}
			checkAllFramesFree(t, c)
		})
	}
}
