package pagecache

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

var errMedia = errors.New("media error")

// flakyBackend fails reads permanently while armed. With a gate it also
// holds every read until the gate closes, so a test can park a second
// reader on a page whose load is still in flight.
type flakyBackend struct {
	*sim.Device
	*storage.SyncReads // bound to flakyBackend.Submit

	fail    atomic.Bool
	gate    chan struct{} // nil: no holding
	entered chan struct{} // receives once per held read
}

func (b *flakyBackend) Submit(req *storage.Request) {
	if b.gate != nil {
		go func() {
			b.entered <- struct{}{}
			<-b.gate
			b.finish(req)
		}()
		return
	}
	b.finish(req)
}

func (b *flakyBackend) finish(req *storage.Request) {
	if b.fail.Load() {
		req.Err = errMedia
		req.Done(req)
		return
	}
	b.Device.Submit(req)
}

// checkAllFramesFree fails unless every frame the cache ever carved is
// back on the free list: nothing resident, nothing leaked by a failed
// load.
func checkAllFramesFree(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	free := 0
	for pg := c.free; pg != nil; pg = pg.next {
		if pg.pins != 0 || pg.loading || pg.err != nil {
			t.Errorf("free record for %v is not clean: pins=%d loading=%v err=%v", pg.key, pg.pins, pg.loading, pg.err)
		}
		free++
	}
	if len(c.pages) != 0 || c.lru.next != &c.lru || free != c.frames {
		t.Fatalf("resident=%d ring empty=%v free=%d of %d frames", len(c.pages), c.lru.next == &c.lru, free, c.frames)
	}
}

// TestFailedFaultDoesNotPoison: a fault whose read fails permanently must
// not leave its frame behind as a resident page. On the parent the second
// read was a hit with err == nil and zero bytes.
func TestFailedFaultDoesNotPoison(t *testing.T) {
	dev := sim.New(1<<20, sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	img := fillPattern(dev, 0, 1<<20)
	flaky := &flakyBackend{Device: dev}
	flaky.SyncReads = storage.NewSyncReads(flaky.Submit, dev.SectorSize())
	c := New(flaky, hostmem.NewBudget(1<<20))
	f := c.NewFile(0, 1<<20)

	buf := make([]byte, 64)
	flaky.fail.Store(true)
	if _, err := f.ReadCtx(context.Background(), 0, buf); !errors.Is(err, errMedia) {
		t.Fatalf("first read: got %v, want the media error", err)
	}
	checkAllFramesFree(t, c)

	flaky.fail.Store(false)
	if _, err := f.ReadCtx(context.Background(), 0, buf); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if !bytes.Equal(buf, img[:64]) {
		t.Fatalf("second read returned wrong bytes: byte 1 = %d, want %d", buf[1], img[1])
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("stats %+v: both reads must be misses, the failed page was never resident", s)
	}
}

// TestFailedFaultFailsCoalescedWaiters: a reader that found the page
// loading shares the loader's outcome, error included.
func TestFailedFaultFailsCoalescedWaiters(t *testing.T) {
	dev := sim.New(1<<20, sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	fillPattern(dev, 0, 1<<20)
	flaky := &flakyBackend{Device: dev, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	flaky.SyncReads = storage.NewSyncReads(flaky.Submit, dev.SectorSize())
	flaky.fail.Store(true)
	c := New(flaky, hostmem.NewBudget(1<<20))
	f := c.NewFile(0, 1<<20)

	errs := make(chan error, 2)
	read := func() {
		_, err := f.ReadCtx(context.Background(), 100, make([]byte, 64))
		errs <- err
	}
	go read()
	<-flaky.entered // the loader's read is held at the device
	go read()
	for c.Stats().Hits == 0 { // the waiter counts its hit once it has pinned the loading page
		time.Sleep(time.Millisecond)
	}
	close(flaky.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errMedia) {
			t.Fatalf("reader %d: got %v, want the load's media error", i, err)
		}
	}
	checkAllFramesFree(t, c)
}

// TestWaveCountsEachPageOnce pins the Stats contract: a page is a miss
// for the wave that loaded it and a hit for a wave that found it.
func TestWaveCountsEachPageOnce(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 1<<20)
	fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	w := c.NewWave()
	if _, err := w.Pin(context.Background(), f, []int64{1, 2, 5}); err != nil {
		t.Fatal(err)
	}
	w.Unpin()
	if _, err := w.Pin(context.Background(), f, []int64{2, 5, 9}); err != nil {
		t.Fatal(err)
	}
	w.Unpin()
	if s := c.Stats(); s.Misses != 4 || s.Hits != 2 || s.Evictions != 0 {
		t.Fatalf("stats %+v, want 4 misses, 2 hits, 0 evictions", s)
	}
}

func TestWavePinRejectsBadPages(t *testing.T) {
	_, _, c := testCache(t, 1<<20, 1<<20)
	f := c.NewFile(0, 10*PageSize+1)
	w := c.NewWave()
	for _, pages := range [][]int64{{3, 3}, {4, 2}, {-1}, {11}} {
		if _, err := w.Pin(context.Background(), f, pages); err == nil {
			t.Fatalf("Pin(%v) succeeded", pages)
		}
	}
	if _, err := w.Pin(context.Background(), f, []int64{0, 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Pin(context.Background(), f, []int64{1}); err == nil {
		t.Fatal("Pin on a pinned wave succeeded")
	}
	w.Unpin()
}

// TestPinnedPagesSurviveEvictionAndDropAll: a pinned frame keeps its
// bytes through cache pressure and DropAll, and leaves once unpinned.
func TestPinnedPagesSurviveEvictionAndDropAll(t *testing.T) {
	d, _, c := testCache(t, 1<<20, 4*PageSize)
	img := fillPattern(d, 0, 1<<20)
	f := c.NewFile(0, 1<<20)
	w := c.NewWave()
	if _, err := w.Pin(context.Background(), f, []int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := int64(10); i < 40; i++ {
		if _, err := f.ReadCtx(context.Background(), i*PageSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	c.DropAll()
	if got := c.ResidentBytes(); got != 2*PageSize {
		t.Fatalf("resident %d after DropAll, want the 2 pinned pages", got)
	}
	for _, no := range []int64{3, 4} {
		if !bytes.Equal(w.Frame(no), img[no*PageSize:(no+1)*PageSize]) {
			t.Fatalf("pinned page %d changed under eviction", no)
		}
	}
	if w.Frame(5) != nil {
		t.Fatal("Frame of an unpinned page")
	}
	w.Unpin()
	c.DropAll()
	checkAllFramesFree(t, c)
}

// TestWaveRetriesOnlyFailedPages: a transient fault on some pages of a
// wave re-issues those pages alone.
func TestWaveRetriesOnlyFailedPages(t *testing.T) {
	dev := sim.New(1<<20, sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	img := fillPattern(dev, 0, 1<<20)
	counting := &transientOnce{Device: dev, failed: map[int64]bool{2 * PageSize: false, 7 * PageSize: false}}
	counting.SyncReads = storage.NewSyncReads(counting.Submit, dev.SectorSize())
	c := New(counting, hostmem.NewBudget(1<<20))
	f := c.NewFile(0, 1<<20)
	w := c.NewWave()
	pages := []int64{1, 2, 3, 7, 9}
	if _, err := w.Pin(context.Background(), f, pages); err != nil {
		t.Fatal(err)
	}
	for _, no := range pages {
		if !bytes.Equal(w.Frame(no), img[no*PageSize:(no+1)*PageSize]) {
			t.Fatalf("page %d wrong after retry", no)
		}
	}
	w.Unpin()
	if got := counting.reads.Load(); got != 7 {
		t.Fatalf("device saw %d reads, want 5 + 2 re-issues", got)
	}
	if s := c.Stats(); s.Retries != 2 || s.Misses != 5 {
		t.Fatalf("stats %+v, want 2 retries over 5 misses", s)
	}
}

// transientOnce fails the first read of each listed offset with a
// retryable error.
type transientOnce struct {
	*sim.Device
	*storage.SyncReads // bound to transientOnce.Submit

	mu     sync.Mutex
	failed map[int64]bool
	reads  atomic.Int64
}

func (b *transientOnce) Submit(req *storage.Request) {
	b.reads.Add(1)
	b.mu.Lock()
	done, listed := b.failed[req.Off]
	if listed && !done {
		b.failed[req.Off] = true
	}
	b.mu.Unlock()
	if listed && !done {
		req.Err = faults.ErrTransient
		req.Done(req)
		return
	}
	b.Device.Submit(req)
}

// TestFramesOwnedBound: the cache never owns more frames than its
// allowance plus what its readers pin at once (plus slab rounding) — the
// 8 KB-per-page AlignedBuf slack of the per-page fault is gone.
func TestFramesOwnedBound(t *testing.T) {
	const (
		allowPages = 96
		readers    = 3
		window     = 40
	)
	d, _, c := testCache(t, 8<<20, allowPages*PageSize)
	fillPattern(d, 0, 8<<20)
	f := c.NewFile(0, 8<<20)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			w := c.NewWave()
			pages := make([]int64, 0, window)
			for i := 0; i < 200; i++ {
				pages = pages[:0]
				for no := int64(rng.Intn(64)); no < 2000 && len(pages) < window; no += 1 + int64(rng.Intn(90)) {
					pages = append(pages, no)
				}
				if _, err := w.Pin(context.Background(), f, pages); err != nil {
					t.Error(err)
					return
				}
				w.Unpin()
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	frames := c.frames
	c.mu.Unlock()
	if bound := allowPages + readers*window + slabPages; frames > bound {
		t.Fatalf("cache owns %d frames, bound is %d (allowance %d + %d readers x %d pinned + one slab)",
			frames, bound, allowPages, readers, window)
	}
	// Pages a wave loaded over the allowance stay until the next fault,
	// which then evicts all the way down now that nothing is pinned.
	if _, err := f.ReadCtx(context.Background(), 2040*PageSize, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.ResidentBytes(); got > allowPages*PageSize {
		t.Fatalf("resident %d exceeds allowance %d with nothing pinned", got, allowPages*PageSize)
	}
}

// TestNoFrameRecycledUnderReader is the -race stress for the pin
// protocol: waves, one-page reads, DropAll and a shrinking budget run
// against each other over a patterned image, and every byte any reader
// sees is compared to the image. A frame recycled while a reader still
// held it would show another page's pattern (and a data race).
func TestNoFrameRecycledUnderReader(t *testing.T) {
	const size = 4 << 20
	d, b, c := testCache(t, size, 48*PageSize)
	img := fillPattern(d, 0, size)
	f := c.NewFile(0, size)
	const numPages = size / PageSize
	iters := 400
	if testing.Short() {
		iters = 100
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			w := c.NewWave()
			buf := make([]byte, 3*PageSize)
			var pages []int64
			for i := 0; i < iters; i++ {
				switch rng.Intn(8) {
				case 0:
					c.DropAll()
				case 1:
					// Shrink the allowance to 8 pages for a while, then restore it.
					if err := b.Pin("stress", 40*PageSize); err == nil {
						defer b.Unpin(40 * PageSize)
					}
				case 2, 3:
					off := rng.Int63n(size - int64(len(buf)))
					p := buf[:1+rng.Intn(len(buf))]
					if _, err := f.ReadCtx(context.Background(), off, p); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(p, img[off:off+int64(len(p))]) {
						t.Errorf("one-page read at %d returned wrong bytes", off)
						return
					}
				default:
					pages = pages[:0]
					for no := int64(rng.Intn(32)); no < numPages && len(pages) < 24; no += 1 + int64(rng.Intn(12)) {
						pages = append(pages, no)
					}
					if _, err := w.Pin(context.Background(), f, pages); err != nil {
						t.Error(err)
						return
					}
					for _, no := range pages {
						if !bytes.Equal(w.Frame(no), img[no*PageSize:(no+1)*PageSize]) {
							t.Errorf("pinned page %d holds another page's bytes", no)
						}
					}
					w.Unpin()
				}
			}
		}(g)
	}
	wg.Wait()
	c.DropAll()
	checkAllFramesFree(t, c)
}

// TestFaultWaveZeroAlloc pins the steady-state wave at capacity — every
// page a miss, every miss an eviction — at zero allocations.
func TestFaultWaveZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const wavePages = 32
	d, _, c := testCache(t, 4<<20, 2*wavePages*PageSize)
	fillPattern(d, 0, 4<<20)
	f := c.NewFile(0, 4<<20)
	w := c.NewWave()
	ctx := context.Background()
	var sets [4][]int64 // disjoint, so a wave never finds its pages resident
	for s := range sets {
		for i := 0; i < wavePages; i++ {
			sets[s] = append(sets[s], int64(s*wavePages+i)*2)
		}
	}
	turn := 0
	wave := func() {
		if _, err := w.Pin(ctx, f, sets[turn%len(sets)]); err != nil {
			t.Fatal(err)
		}
		w.Unpin()
		turn++
	}
	for i := 0; i < 8; i++ { // grow slabs, request records and scratch
		wave()
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, wave); allocs != 0 {
		t.Fatalf("steady-state wave allocates %.1f times, want 0", allocs)
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Evictions-before.Evictions != after.Misses-before.Misses {
		t.Fatalf("not the at-capacity case: %+v -> %+v", before, after)
	}
}
