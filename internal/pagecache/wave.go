package pagecache

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

// Wave pins a set of one file's pages for a reader and faults the missing
// ones in together, as one asynchronous batch. While the wave is pinned its
// frames are neither evicted nor recycled, so the reader copies from them
// without the cache lock; Unpin hands them back in one call. A Wave and
// everything it owns is reused from one Pin to the next, so a steady
// wave allocates nothing. It is not safe for concurrent use: give each
// reader goroutine its own.
type Wave struct {
	c *Cache

	nos   []int64 // pinned page numbers, strictly ascending
	pages []*page // pages[i] backs nos[i]

	load    []*page // pages this wave claimed and reads from the device
	foreign []*page // pages another wave was already loading
	pending []*page // pages of load still to read; shrinks round by round
	reqs    []*storage.Request

	// One load at a time: the file and ctx of the Pin in progress, read
	// by round, which errutil.Retry calls with no arguments.
	file *File
	ctx  context.Context

	inflight atomic.Int32
	ready    chan struct{} // 1-buffered; the round's last completion signals it
	done     func(*storage.Request)
	round    func() error
	policy   errutil.Policy
}

// NewWave returns an unpinned wave over the cache.
func (c *Cache) NewWave() *Wave {
	w := &Wave{c: c, ready: make(chan struct{}, 1), policy: faultPolicy}
	w.done = w.complete
	w.round = w.readRound
	w.policy.OnRetry = func(int, error) { c.retries.Add(int64(len(w.pending))) }
	return w
}

// Pin makes the given pages of f resident and holds them until Unpin.
// pages must be strictly ascending and inside the file; the wave must be
// unpinned. It returns the time spent blocked on device I/O (zero when
// every page was resident). If any page cannot be loaded the wave ends
// unpinned and the first failing page's error is returned; ctx rides
// every device read and bounds the retries.
func (w *Wave) Pin(ctx context.Context, f *File, pages []int64) (time.Duration, error) {
	if len(w.pages) != 0 {
		return 0, fmt.Errorf("pagecache: Pin on a wave that still pins %d pages", len(w.pages))
	}
	filePages := (f.size + PageSize - 1) / PageSize
	for i, no := range pages {
		if no < 0 || no >= filePages || (i > 0 && no <= pages[i-1]) {
			return 0, fmt.Errorf("pagecache: wave page %d (index %d) out of order or outside the file's %d pages", no, i, filePages)
		}
	}
	w.nos = append(w.nos[:0], pages...)
	return w.pin(ctx, f)
}

// pin is Pin over w.nos, already filled and valid.
func (w *Wave) pin(ctx context.Context, f *File) (time.Duration, error) {
	c := w.c

	// Classify under one lock acquisition. Residents are pinned before
	// any frame is claimed, so making room for a miss can never evict a
	// page this same wave is about to read.
	c.mu.Lock()
	for _, no := range w.nos {
		pg := c.pages[pageKey{file: f.id, page: no}]
		if pg != nil {
			c.touchLocked(pg)
			pg.pins++
			if pg.loading {
				w.foreign = append(w.foreign, pg)
			}
		}
		w.pages = append(w.pages, pg)
	}
	allow := int64(-1) // read once per wave, and only by a wave that misses
	for i, pg := range w.pages {
		if pg != nil {
			continue
		}
		if allow < 0 {
			allow = c.budget.CachePool()
		}
		c.evictLocked(allow, 1)
		pg = c.claimLocked()
		pg.key = pageKey{file: f.id, page: w.nos[i]}
		pg.loading, pg.pins = true, 1
		c.pages[pg.key] = pg
		c.pushFrontLocked(pg)
		w.pages[i] = pg
		w.load = append(w.load, pg)
	}
	c.mu.Unlock()
	c.hits.Add(int64(len(w.pages) - len(w.load)))
	if len(w.load) == 0 && len(w.foreign) == 0 {
		return 0, nil
	}

	start := time.Now()
	if len(w.load) > 0 {
		c.misses.Add(int64(len(w.load)))
		w.file, w.ctx = f, ctx
		w.pending = append(w.pending[:0], w.load...)
		err := errutil.Retry(ctx, w.policy, w.round)
		// Whatever is still pending ran out of attempts or was cancelled.
		for _, pg := range w.pending {
			pg.err = err
		}
		w.file, w.ctx = nil, nil
	}

	// Publish under one more lock acquisition, then wait out the pages
	// other waves were loading. Every wave publishes its own loads before
	// it waits on anyone else's, so two waves cannot wait on each other.
	c.mu.Lock()
	for _, pg := range w.load {
		pg.loading = false
		if pg.err != nil {
			c.removeLocked(pg)
		}
	}
	c.loaded.Broadcast()
	for _, pg := range w.foreign {
		for pg.loading {
			c.loaded.Wait()
		}
	}
	c.mu.Unlock()
	w.load, w.foreign = w.load[:0], w.foreign[:0]
	waited := time.Since(start)

	// Holding a pin keeps a failed record (and its err) from being reused.
	for _, pg := range w.pages {
		if err := pg.err; err != nil {
			w.Unpin()
			return waited, err
		}
	}
	return waited, nil
}

// readRound is one attempt: read every pending page — as one batch when
// there is more than one — wait for all of them, and keep pending only
// the pages whose error the fault policy retries. Permanent failures are
// recorded on their page and leave the round; the first retryable error
// is returned so errutil.Retry backs off and calls again.
func (w *Wave) readRound() error {
	dev := w.c.dev
	for len(w.reqs) < len(w.pending) {
		w.reqs = append(w.reqs, &storage.Request{Done: w.done})
	}
	batch := w.reqs[:len(w.pending)]
	capacity := dev.Capacity()
	for i, pg := range w.pending {
		// A buffered PageSize read, clamped at the end of the device.
		off := w.file.base + pg.key.page*PageSize
		n := max(0, min(PageSize, capacity-off))
		req := batch[i]
		req.ResetForReuse()
		req.Buf, req.Off, req.Ctx = pg.data[:n], off, w.ctx
	}
	if len(batch) == 1 {
		// A lone page needs no batch: the backend's synchronous read is
		// the same submit-and-wait, and it keeps a one-page fault visible
		// as a synchronous read to whatever decorates the backend.
		req := batch[0]
		_, req.Err = dev.ReadAtCtx(req.Ctx, req.Buf, req.Off)
	} else {
		w.inflight.Store(int32(len(batch)))
		storage.SubmitAll(dev, batch)
		<-w.ready
	}

	var retry error
	keep := w.pending[:0]
	for i, pg := range w.pending {
		req := batch[i]
		err, n := req.Err, len(req.Buf)
		req.Buf, req.Ctx = nil, nil
		switch {
		case err == nil:
			// A recycled frame keeps its old bytes past a clamped read.
			clear(pg.data[n:])
		case faults.Retryable(err):
			keep = append(keep, pg)
			if retry == nil {
				retry = err
			}
		default:
			pg.err = err
		}
	}
	w.pending = keep
	return retry
}

// complete is every request's Done: the last completion of a round wakes
// the wave. It runs on a backend goroutine (or inline, for a backend that
// fails a request at submit), so it only counts and signals.
func (w *Wave) complete(*storage.Request) {
	if w.inflight.Add(-1) == 0 {
		w.ready <- struct{}{}
	}
}

// Frame returns the pinned frame of page no, or nil when this wave does
// not pin it. The bytes are valid until Unpin.
func (w *Wave) Frame(no int64) []byte {
	if i, ok := slices.BinarySearch(w.nos, no); ok {
		return w.pages[i].data
	}
	return nil
}

// Unpin releases every page the wave holds. Unpinning an unpinned wave
// is a no-op.
func (w *Wave) Unpin() {
	if len(w.pages) > 0 {
		c := w.c
		c.mu.Lock()
		for _, pg := range w.pages {
			pg.pins--
			if pg.pins == 0 && pg.err != nil {
				c.recycleLocked(pg)
			}
		}
		c.mu.Unlock()
	}
	w.pages, w.nos = w.pages[:0], w.nos[:0]
}
