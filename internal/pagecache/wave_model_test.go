package pagecache

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gnndrive/internal/faults"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
)

// scriptedBackend fails reads by offset as the schedule says: the next
// transient[off] attempts at off fail with a retryable error, and every
// attempt at an offset in media fails permanently.
type scriptedBackend struct {
	*sim.Device
	*storage.SyncReads // bound to scriptedBackend.Submit

	mu        sync.Mutex
	transient map[int64]int
	media     map[int64]bool
}

func (b *scriptedBackend) Submit(req *storage.Request) {
	b.mu.Lock()
	var err error
	switch {
	case b.media[req.Off]:
		err = errMedia
	case b.transient[req.Off] > 0:
		b.transient[req.Off]--
		err = faults.ErrTransient
	}
	b.mu.Unlock()
	if err != nil {
		req.Err = err
		req.Done(req)
		return
	}
	b.Device.Submit(req)
}

// waveModel is the cache as a map of pin counts and a slice in LRU order,
// with none of the frame recycling, loading flags or lock choreography of
// the real one. A fate names how a page's device read goes: ok,
// transient for n attempts, or a media error.
type waveModel struct {
	lru   []int64 // resident pages, most recently used first
	pins  map[int64]int
	stats Stats
}

type fate struct {
	transient int
	media     bool
}

func (m *waveModel) touch(no int64) {
	at := slices.Index(m.lru, no)
	m.lru = slices.Insert(slices.Delete(m.lru, at, at+1), 0, no)
}

func (m *waveModel) remove(no int64) {
	at := slices.Index(m.lru, no)
	m.lru = slices.Delete(m.lru, at, at+1)
	delete(m.pins, no)
}

// pin is Wave.Pin: pin the residents, then claim a frame per miss in
// page order — evicting the least recently used unpinned pages while the
// cache plus the miss exceeds allow, and running over when nothing is
// left to evict — then read the misses in up to three rounds, re-issuing
// only the transiently failed pages. Failed pages leave the cache. On any
// failure the wave unpins everything, and the error is that of its
// lowest failed page.
func (m *waveModel) pin(pages []int64, allow int64, fates map[int64]fate) error {
	var load []int64
	for _, no := range pages {
		if _, ok := m.pins[no]; ok {
			m.touch(no)
			m.pins[no]++
		} else {
			load = append(load, no)
		}
	}
	for _, no := range load {
		for int64(len(m.lru)+1)*PageSize > allow {
			at := len(m.lru) - 1
			for at >= 0 && m.pins[m.lru[at]] > 0 {
				at--
			}
			if at < 0 {
				break
			}
			m.remove(m.lru[at])
			m.stats.Evictions++
		}
		m.lru = slices.Insert(m.lru, 0, no)
		m.pins[no] = 1
	}
	m.stats.Hits += int64(len(pages) - len(load))
	m.stats.Misses += int64(len(load))

	failed := map[int64]error{}
	pending := load
	for attempt := 1; len(pending) > 0; attempt++ {
		var keep []int64
		for _, no := range pending {
			switch f := fates[no]; {
			case f.media:
				failed[no] = errMedia
			case f.transient >= attempt:
				keep = append(keep, no)
			}
		}
		pending = keep
		if attempt == 3 {
			for _, no := range pending {
				failed[no] = faults.ErrTransient
			}
			break
		}
		m.stats.Retries += int64(len(pending))
	}
	if len(failed) == 0 {
		return nil
	}
	for no := range failed {
		m.remove(no)
	}
	m.unpin(pages)
	for _, no := range pages {
		if err := failed[no]; err != nil {
			return err
		}
	}
	panic("unreachable")
}

func (m *waveModel) unpin(pages []int64) {
	for _, no := range pages {
		if _, ok := m.pins[no]; ok {
			m.pins[no]--
		}
	}
}

func (m *waveModel) dropAll() {
	for _, no := range slices.Clone(m.lru) {
		if m.pins[no] == 0 {
			m.remove(no)
		}
	}
}

// TestWaveMatchesModel drives waves and waveModel through the same seeded
// random sequential schedules — pins of random page sets (claim, publish,
// evict), unpins, one-page reads through File.ReadCtx, DropAll, and an
// allowance that shrinks and grows — with scripted transient and media
// errors on some reads. After every step it compares the Pin error, the
// LRU order, every resident page's pin count, Stats, and the bytes of
// every pinned frame, and checks that no frame leaked.
func TestWaveMatchesModel(t *testing.T) {
	const (
		filePages  = 40
		budget     = 24 * PageSize
		squeeze    = 16 * PageSize // pinned off the budget while squeezed
		numWaves   = 3
		maxPerWave = 8
		steps      = 300
	)
	ctx := context.Background()
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	var total Stats
	failures, drops := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := sim.New(filePages*PageSize, sim.InstantConfig())
		img := fillPattern(dev, 0, filePages*PageSize)
		sb := &scriptedBackend{Device: dev, transient: map[int64]int{}, media: map[int64]bool{}}
		sb.SyncReads = storage.NewSyncReads(sb.Submit, dev.SectorSize())
		b := hostmem.NewBudget(budget)
		c := New(sb, b)
		f := c.NewFile(0, filePages*PageSize)
		m := &waveModel{pins: map[int64]int{}}
		waves := make([]*Wave, numWaves)
		held := make([][]int64, numWaves) // pages each wave pins; nil when unpinned
		for i := range waves {
			waves[i] = c.NewWave()
		}
		squeezed := false

		// script draws a fate for each of pages: most reads succeed, and
		// one step in five scripts errors into some of them.
		script := func(pages []int64) map[int64]fate {
			fates := map[int64]fate{}
			clear(sb.transient)
			clear(sb.media)
			if rng.Intn(5) != 0 {
				return fates
			}
			for _, no := range pages {
				var fa fate
				switch rng.Intn(6) {
				case 0:
					fa.transient = 1 + rng.Intn(3) // 3 exhausts the attempts
				case 1:
					fa.media = true
				}
				fates[no] = fa
				sb.transient[no*PageSize] = fa.transient
				sb.media[no*PageSize] = fa.media
			}
			return fates
		}

		for step := 0; step < steps; step++ {
			switch k := rng.Intn(20); {
			case k < 8:
				w := rng.Intn(numWaves)
				if held[w] != nil {
					continue
				}
				var pages []int64
				for no := int64(rng.Intn(4)); no < filePages && len(pages) < maxPerWave; no += 1 + int64(rng.Intn(6)) {
					pages = append(pages, no)
				}
				fates := script(pages)
				_, err := waves[w].Pin(ctx, f, pages)
				want := m.pin(pages, b.CachePool(), fates)
				if (err == nil) != (want == nil) || (want != nil && !errors.Is(err, want)) {
					t.Fatalf("seed %d step %d: Pin(%v) = %v, model %v", seed, step, pages, err, want)
				}
				if err == nil {
					held[w] = pages
				} else {
					failures++
				}
			case k < 13:
				w := rng.Intn(numWaves)
				if held[w] == nil {
					continue
				}
				waves[w].Unpin()
				m.unpin(held[w])
				held[w] = nil
			case k < 17:
				off := rng.Int63n(filePages*PageSize - 1)
				p := make([]byte, 1+rng.Intn(2*PageSize))
				if rest := filePages*PageSize - off; int64(len(p)) > rest {
					p = p[:rest]
				}
				first, last := off/PageSize, (off+int64(len(p))-1)/PageSize
				var pages []int64
				for no := first; no <= last; no++ {
					pages = append(pages, no)
				}
				fates := script(pages)
				_, err := f.ReadCtx(ctx, off, p)
				var want error
				for _, no := range pages {
					if want = m.pin([]int64{no}, b.CachePool(), fates); want != nil {
						break
					}
					m.unpin([]int64{no})
				}
				if (err == nil) != (want == nil) || (want != nil && !errors.Is(err, want)) {
					t.Fatalf("seed %d step %d: ReadCtx(%d, %d) = %v, model %v", seed, step, off, len(p), err, want)
				}
				if err == nil && !bytes.Equal(p, img[off:off+int64(len(p))]) {
					t.Fatalf("seed %d step %d: ReadCtx(%d, %d) returned wrong bytes", seed, step, off, len(p))
				}
				if err != nil {
					failures++
				}
			case k < 18:
				c.DropAll()
				m.dropAll()
				drops++
			default:
				if squeezed {
					b.Unpin(squeeze)
				} else if err := b.Pin("squeeze", squeeze); err != nil {
					t.Fatal(err)
				}
				squeezed = !squeezed
			}
			checkMatchesModel(t, c, m, seed, step)
			for w, pages := range held {
				for _, no := range pages {
					if !bytes.Equal(waves[w].Frame(no), img[no*PageSize:(no+1)*PageSize]) {
						t.Fatalf("seed %d step %d: wave %d's frame of page %d holds other bytes", seed, step, w, no)
					}
				}
			}
		}
		for w := range waves {
			waves[w].Unpin()
		}
		c.DropAll()
		checkAllFramesFree(t, c)
		dev.Close()
		s := c.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
		total.Retries += s.Retries
	}
	if total.Hits == 0 || total.Evictions == 0 || total.Retries == 0 || failures == 0 || drops == 0 {
		t.Fatalf("schedules missed a transition: %+v, %d failed pins or reads, %d drops", total, failures, drops)
	}
}

// checkMatchesModel compares the cache's LRU ring, pin counts and Stats
// with the model's, and checks that every frame the cache carved is
// resident or free.
func checkMatchesModel(t *testing.T, c *Cache, m *waveModel, seed int64, step int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var lru []int64
	for pg := c.lru.next; pg != &c.lru; pg = pg.next {
		lru = append(lru, pg.key.page)
		if pg.loading || pg.err != nil || int(pg.pins) != m.pins[pg.key.page] {
			t.Fatalf("seed %d step %d: page %d pins %d loading %v err %v, model pins %d",
				seed, step, pg.key.page, pg.pins, pg.loading, pg.err, m.pins[pg.key.page])
		}
	}
	if !slices.Equal(lru, m.lru) || len(c.pages) != len(m.lru) {
		t.Fatalf("seed %d step %d: LRU %v (%d mapped), model %v", seed, step, lru, len(c.pages), m.lru)
	}
	if s := c.Stats(); s != m.stats {
		t.Fatalf("seed %d step %d: stats %+v, model %+v", seed, step, s, m.stats)
	}
	free := 0
	for pg := c.free; pg != nil; pg = pg.next {
		free++
	}
	if free+len(c.pages) != c.frames {
		t.Fatalf("seed %d step %d: %d free + %d resident of %d frames", seed, step, free, len(c.pages), c.frames)
	}
}
