// Package pagecache models the OS page cache shared by every
// memory-mapped file on the machine.
//
// This is the arena where the paper's memory contention (O1) plays out:
// PyG+ memory-maps both topology and features, so extract-stage feature
// pages evict sample-stage topology pages from the same LRU. The cache's
// allowance is whatever the host budget has not pinned (hostmem.Budget),
// so growing an application buffer shrinks the cache exactly as on Linux.
//
// There is one fault path, the wave (wave.go): a reader names a sorted
// set of pages, the cache pins the resident ones and claims frames for
// the missing ones under one lock acquisition, and the misses go to the
// device as one asynchronous batch. File.ReadCtx is the one-page wave.
package pagecache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
)

// faultPolicy retries page fault-ins that faults.Retryable clears (a
// transient device error or a short read), so sample-stage topology reads
// survive the same injected failures the extractor retries; media errors
// stay permanent.
// storage.ErrChecksum / storage.ErrQuarantined are deliberately absent:
// the integrity layer has already spent its own raw re-read budget before
// surfacing either sentinel, so retrying the timed read here would only
// replay a verification that cannot newly succeed.
var faultPolicy = errutil.Policy{
	Retryable: faults.Retryable,
}

// PageSize is the cache granularity, as on Linux.
const PageSize = 4096

// slabPages is how many frames the cache carves per allocation. Slabs
// are added only when a fault finds the free list empty, so a cache whose
// working set is small never owns more than one slab beyond it.
const slabPages = 64

type pageKey struct {
	file int32
	page int64
}

// page is one frame and its bookkeeping. The frame is bound to the record
// for life: both are carved from a slab once and move together between
// the LRU ring and the free list. Every field but data is guarded by
// Cache.mu, except that the wave loading a page owns err until it clears
// loading.
type page struct {
	key        pageKey
	data       []byte // PageSize bytes, page-aligned
	prev, next *page  // LRU ring while resident; next chains the free list
	// pins counts readers holding the frame. A pinned page is neither
	// evicted nor dropped, so its bytes stay valid without the lock.
	pins int32
	// loading is set while a wave's device read into data is in flight.
	loading bool
	// err is why the load failed. A failed page has left the map and the
	// ring; the last reader to unpin it returns the record.
	err error
}

// Stats are cumulative cache counters. Every page a reader asks for
// counts once: a miss if that reader's wave loaded it, a hit if it was
// resident (or already loading) when the wave pinned it.
type Stats struct {
	Hits, Misses int64
	// Evictions counts frames recycled because the cache exceeded its
	// allowance.
	Evictions int64
	// Retries counts page fault-ins re-issued after a transient device
	// error.
	Retries int64
}

// Cache is a shared LRU page cache in front of one storage backend.
type Cache struct {
	dev    storage.Backend
	budget *hostmem.Budget

	mu sync.Mutex
	// loaded is broadcast whenever a wave publishes, waking readers whose
	// pages that wave was loading.
	loaded *sync.Cond
	pages  map[pageKey]*page
	lru    page  // ring sentinel: lru.next is most recently used
	free   *page // recycled records, chained through next
	// frames counts frames carved so far: resident + free + failed but
	// still pinned. Nothing reads it on the fault path; it is what the
	// leak and owned-frames tests hold the other three against.
	frames int
	nextID int32

	// waves recycles the one-page waves behind File.ReadCtx.
	waves sync.Pool

	hits, misses, evictions, retries atomic.Int64
}

// New creates a cache over dev whose size is bounded by budget.CachePool().
func New(dev storage.Backend, budget *hostmem.Budget) *Cache {
	c := &Cache{
		dev:    dev,
		budget: budget,
		pages:  make(map[pageKey]*page),
	}
	c.loaded = sync.NewCond(&c.mu)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.waves.New = func() any { return c.NewWave() }
	return c
}

// File is a mmap-able region of the device, read through the cache.
type File struct {
	c    *Cache
	id   int32
	base int64
	size int64
}

// NewFile registers a device region [base, base+size) as a cached file.
func (c *Cache) NewFile(base, size int64) *File {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return &File{c: c, id: c.nextID, base: base, size: size}
}

// ReadCtx copies file bytes [off, off+len(p)) into p through the cache,
// faulting missing pages from the device. It returns the total time spent
// blocked on device I/O (zero on a full hit). ctx rides every fault's
// device read and bounds its retries, so a cancelled sampler neither waits
// out a stuck read nor re-issues page reads against a sick device. Each page
// is pinned by a one-page wave for just the copy, so a long read never
// holds more than one frame.
func (f *File) ReadCtx(ctx context.Context, off int64, p []byte) (time.Duration, error) {
	if off < 0 || off+int64(len(p)) > f.size {
		return 0, fmt.Errorf("pagecache: read [%d,%d) outside file size %d", off, off+int64(len(p)), f.size)
	}
	w := f.c.waves.Get().(*Wave)
	defer f.c.waves.Put(w)
	var waited time.Duration
	for done := 0; done < len(p); {
		pos := off + int64(done)
		w.nos = append(w.nos, pos/PageSize)
		d, err := w.pin(ctx, f)
		waited += d
		if err != nil {
			return waited, err
		}
		done += copy(p[done:], w.pages[0].data[pos%PageSize:])
		w.Unpin()
	}
	return waited, nil
}

// touchLocked moves a resident page to the most-recently-used end.
func (c *Cache) touchLocked(pg *page) {
	c.unlinkLocked(pg)
	c.pushFrontLocked(pg)
}

func (c *Cache) pushFrontLocked(pg *page) {
	pg.prev, pg.next = &c.lru, c.lru.next
	pg.prev.next, pg.next.prev = pg, pg
}

func (c *Cache) unlinkLocked(pg *page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
}

// claimLocked takes a record off the free list, carving a new slab when
// it is empty. Frames are page-aligned so the same buffer stays legal if
// the backend is opened O_DIRECT.
func (c *Cache) claimLocked() *page {
	if c.free == nil {
		frames := storage.AlignedBuf(slabPages*PageSize, PageSize)
		recs := make([]page, slabPages)
		for i := range recs {
			recs[i].data = frames[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
			recs[i].next = c.free
			c.free = &recs[i]
		}
		c.frames += slabPages
	}
	pg := c.free
	c.free = pg.next
	return pg
}

// recycleLocked returns an unlinked, unpinned record to the free list.
func (c *Cache) recycleLocked(pg *page) {
	pg.err = nil
	pg.next = c.free
	c.free = pg
}

// removeLocked takes a page out of the map and the ring; its frame stays
// with whoever still pins it.
func (c *Cache) removeLocked(pg *page) {
	delete(c.pages, pg.key)
	c.unlinkLocked(pg)
}

// evictLocked recycles least-recently-used pages until the cache plus
// incoming more pages fits allow. Pages still loading or pinned by a
// reader are skipped; when nothing else is left the cache runs over its
// allowance until they land.
func (c *Cache) evictLocked(allow int64, incoming int) {
	for int64(len(c.pages)+incoming)*PageSize > allow {
		pg := c.lru.prev
		for pg != &c.lru && (pg.loading || pg.pins > 0) {
			pg = pg.prev
		}
		if pg == &c.lru {
			return
		}
		c.removeLocked(pg)
		c.recycleLocked(pg)
		c.evictions.Add(1)
	}
}

// ResidentBytes returns the bytes currently cached.
func (c *Cache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.pages)) * PageSize
}

// DropAll empties the cache (echo 3 > drop_caches between runs). Pages
// still loading or pinned by a reader stay.
func (c *Cache) DropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pg := c.lru.next; pg != &c.lru; {
		next := pg.next
		if !pg.loading && pg.pins == 0 {
			c.removeLocked(pg)
			c.recycleLocked(pg)
		}
		pg = next
	}
}

// Stats returns a snapshot of cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Retries: c.retries.Load()}
}
