//go:build linux

package linuring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
)

// nopUserData tags the wake-up NOP Close submits so the reaper can tell
// it from a read completion (slot indices are < ring entries).
const nopUserData = ^uint64(0)

// slot is the in-flight state of one ring submission, indexed by the
// SQE's user_data. A slot is owned by the submitter from acquisition
// (receive on free) until the enter that publishes it, then by the
// reaper until completeSlot returns it to free.
type slot struct {
	req    *storage.Request
	dec    faults.Decision
	start  time.Time
	direct bool // currently attempted on the O_DIRECT descriptor
	// ready publishes the fields above from the submitter to the reaper.
	// The real ordering edge runs through the kernel (SQE publish →
	// CQE), which neither the Go memory model nor the race detector can
	// see — so recordSlot store-releases after filling the slot and
	// handleCQE load-acquires before reading it.
	ready atomic.Uint32
}

// Backend is a storage.Backend over a regular file whose asynchronous
// reads are served by a Linux io_uring: SubmitBatch encodes a whole read
// plan as SQEs and issues a single io_uring_enter. The descriptor pair
// and its raw paths, the counters and the fault injector are
// storage/file's Descriptors; what the backend owns is the ring, its
// slots and the reaper.
type Backend struct {
	*file.Descriptors
	*storage.SyncReads
	bufFd, dirFd int32 // dirFd is -1 when O_DIRECT is unavailable

	ring  *uring
	slots []slot
	free  chan uint32

	// submitMu serializes SQE population and io_uring_enter for
	// submission.
	submitMu sync.Mutex

	enters  atomic.Int64 // io_uring_enter calls that submitted reads
	batches atomic.Int64 // SubmitBatch/Submit admissions that reached the ring

	// fence orders admissions (wg.Add) before Close. wg counts admitted
	// requests; Close waits it out before killing the ring, so every
	// in-flight slot — including delayed fault goroutines that re-enter
	// the ring — completes against a live ring.
	fence     storage.Fence
	wg        sync.WaitGroup
	stopping  atomic.Bool
	reaperWg  sync.WaitGroup
	reapFault atomic.Pointer[error] // first unexpected reaper error, for tests
}

var (
	_ storage.Backend        = (*Backend)(nil)
	_ storage.BatchSubmitter = (*Backend)(nil)
)

// Create creates (or truncates) the file at path sized for capacity
// bytes — rounded up to a whole sector, as in storage/file — and returns
// an io_uring backend over it. It fails with an error wrapping
// ErrUnsupported when the kernel refuses io_uring or the EnvDisable
// environment switch is set; FallbackFactory turns that into a file
// backend instead.
func Create(path string, capacity int64, opts Options) (storage.Backend, error) {
	if !Supported() {
		return nil, fmt.Errorf("linuring: create %s: %w", path, ErrUnsupported)
	}
	d, err := file.CreateDescriptors(path, capacity, opts.DisableDirect)
	if err != nil {
		return nil, err
	}
	u, err := setupRing(ringEntries)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	b := &Backend{
		Descriptors: d,
		ring:        u,
		slots:       make([]slot, u.entries),
		free:        make(chan uint32, u.entries),
	}
	b.SyncReads = storage.NewSyncReads(b.Submit, d.SectorSize())
	b.bufFd, b.dirFd = d.Fds()
	for i := uint32(0); i < u.entries; i++ {
		b.free <- i
	}
	b.reaperWg.Add(1)
	go b.reaper()
	return b, nil
}

// RingStats exposes the io_uring-specific counters: submission enters,
// admitted batches and the ring depth. The bench and the batching tests
// read these.
func (b *Backend) RingStats() RingStats {
	return RingStats{
		Enters:  b.enters.Load(),
		Batches: b.batches.Load(),
		Entries: int(b.ring.entries),
	}
}

// Submit enqueues one asynchronous read; the Done callback fires on the
// ring's completion goroutine. Submitting to a closed backend completes
// the request with storage.ErrClosed.
func (b *Backend) Submit(req *storage.Request) {
	b.SubmitBatch([]*storage.Request{req})
}

// SubmitBatch admits every request, encodes the rideable ones as SQEs,
// and publishes them to the kernel with one io_uring_enter — the whole
// extract read plan costs a single syscall. Requests carrying an
// injected delay or error leave the batch onto a goroutine slow path
// (wall-clock stragglers must not stall the ring) and either complete
// there or rejoin the ring after their delay. Admission only counts a
// request in wg; the ring work runs after the fence is released, and wg
// keeps the ring alive until every admitted request has completed.
func (b *Backend) SubmitBatch(reqs []*storage.Request) {
	sc := scratches.Get().(*scratch)
	b.fence.Admit(reqs, b.Capacity(), func(req *storage.Request) {
		b.wg.Add(1)
		sc.reqs = append(sc.reqs, req)
	})
	batch := sc.ids[:0]
	ringed := false
	for _, req := range sc.reqs {
		if len(req.Buf) == 0 || req.Ctx != nil && req.Ctx.Err() != nil {
			b.serveSlow(req, faults.Decision{}) // completes at once: empty, or abandoned
			continue
		}
		dec := b.Decide(req.Off, len(req.Buf))
		if dec.Err != nil || dec.Delay > 0 {
			go b.serveSlow(req, dec)
			continue
		}
		ringed = true
		// Acquire a slot without blocking while the batch is still
		// staged: a batch wider than the ring must submit what it holds
		// before waiting on completions to free slots, or nothing is in
		// flight to ever free them.
		var id uint32
		select {
		case id = <-b.free:
		default:
			b.flushBatch(batch)
			batch = batch[:0]
			id = <-b.free
		}
		b.recordSlot(id, req, dec)
		batch = append(batch, id)
	}
	b.flushBatch(batch)
	clear(sc.reqs)
	sc.reqs, sc.ids = sc.reqs[:0], batch[:0]
	scratches.Put(sc)
	if ringed {
		b.batches.Add(1)
	}
}

// scratch is SubmitBatch's admitted-request and slot-id scratch:
// concurrent submitters (several extractors, page-cache waves) each need
// their own, and pooling it keeps steady-state submission
// allocation-free.
type scratch struct {
	reqs []*storage.Request
	ids  []uint32
}

var scratches = sync.Pool{New: func() any {
	return &scratch{reqs: make([]*storage.Request, 0, 64), ids: make([]uint32, 0, 64)}
}}

// recordSlot fills slot id with req's service state.
func (b *Backend) recordSlot(id uint32, req *storage.Request, dec faults.Decision) {
	s := &b.slots[id]
	s.req, s.dec, s.start = req, dec, time.Now()
	s.direct = b.UseDirect(req, req.Buf, req.Direct)
}

// flushBatch stages the slots' SQEs and submits them, preferring one
// io_uring_enter for the whole batch; only a batch larger than the SQ
// ring splits into multiple enters.
func (b *Backend) flushBatch(ids []uint32) {
	if len(ids) == 0 {
		return
	}
	b.submitMu.Lock()
	defer b.submitMu.Unlock()
	staged := 0 // ids[staged:i] are pushed but not yet entered
	for i, id := range ids {
		e := b.buildSQE(id)
		if !b.ring.pushSQE(&e) {
			b.enterStaged(ids[staged:i])
			staged = i
			b.ring.pushSQE(&e)
		}
	}
	b.enterStaged(ids[staged:])
}

// enterStaged publishes and submits the staged SQEs; on an enter
// failure (catastrophic — a dead ring) it fails the staged slots.
func (b *Backend) enterStaged(staged []uint32) {
	n := b.ring.flushTail()
	if n == 0 {
		return
	}
	if _, err := b.ring.enter(n, 0, 0); err != nil {
		for _, id := range staged {
			s := &b.slots[id]
			s.req.Err = fmt.Errorf("linuring: submit read [%d,%d): %w",
				s.req.Off, s.req.Off+int64(len(s.req.Buf)), err)
			b.completeSlot(id, 0)
		}
		return
	}
	b.enters.Add(1)
	// Hand the slots to the reaper (see slot.ready). The release must
	// come after every submitter-side access — recordSlot's writes and
	// buildSQE's reads — so it sits here, after the enter, not in
	// recordSlot; the reaper may already be spinning on it.
	for _, id := range staged {
		b.slots[id].ready.Store(1)
	}
}

// buildSQE encodes slot id as a READ SQE on the descriptor the slot is
// attempted on. Caller holds submitMu.
func (b *Backend) buildSQE(id uint32) sqe {
	s := &b.slots[id]
	req := s.req
	fd := b.bufFd
	if s.direct {
		fd = b.dirFd
	}
	return sqe{
		opcode:   opRead,
		fd:       fd,
		off:      uint64(req.Off),
		addr:     uint64(uintptr(unsafe.Pointer(&req.Buf[0]))),
		len:      uint32(len(req.Buf)),
		userData: uint64(id),
	}
}

// serveSlow runs a request off the ring: a straggler delay is slept out
// (honoring the request context), an injected error completes with at
// most a short-read prefix, an empty or cancelled request completes at
// once, and a delay-only request rejoins the ring afterwards so it still
// performs real device I/O. The request was admitted before, so the ring
// outlives it even if Close has begun.
func (b *Backend) serveSlow(req *storage.Request, dec faults.Decision) {
	start := time.Now()
	if errutil.Sleep(req.Ctx, dec.Delay) != nil {
		b.Abandon(req, time.Since(start))
		b.wg.Done()
		return
	}
	filled := b.Fault(req, dec)
	if req.Err == nil && filled > 0 {
		// Delay only: the read itself proceeds through the ring.
		id := <-b.free
		b.recordSlot(id, req, dec)
		b.slots[id].start = start // keep the pre-delay service start
		b.flushBatch([]uint32{id})
		return
	}
	if filled > 0 {
		// A short-read prefix is not sector-sized; serve it buffered.
		if err := b.Pread(req, req.Buf[:filled], req.Off, false); err != nil {
			filled = 0
		}
	}
	b.complete(req, dec, start, filled)
}

// reaper is the completion goroutine: it blocks in io_uring_enter with
// GETEVENTS, drains the CQ, and routes each completion through the
// request's Done callback. Close wakes it with a tagged NOP after the
// in-flight count drains.
func (b *Backend) reaper() {
	defer b.reaperWg.Done()
	for {
		for {
			ud, res, ok := b.ring.reapCQE()
			if !ok {
				break
			}
			if ud == nopUserData {
				if b.stopping.Load() {
					return
				}
				continue
			}
			b.handleCQE(uint32(ud), res)
		}
		if b.stopping.Load() {
			return
		}
		if _, err := b.ring.enter(0, 1, enterGetEvents); err != nil {
			if b.stopping.Load() {
				return
			}
			e := err
			b.reapFault.CompareAndSwap(nil, &e)
			time.Sleep(time.Millisecond)
		}
	}
}

// handleCQE finishes one ring completion: a runtime O_DIRECT rejection
// re-submits the same slot buffered (counted once as a degradation), a
// short transfer is topped up through the buffered descriptor, and a
// clean read gets its injected silent corruption applied on completion.
func (b *Backend) handleCQE(id uint32, res int32) {
	s := &b.slots[id]
	// Acquire the submitter's slot publication (see slot.ready).
	for s.ready.Load() == 0 {
		runtime.Gosched()
	}
	req := s.req
	n := len(req.Buf)
	if res < 0 {
		errno := syscall.Errno(-res)
		if s.direct && b.Rejected(req, errno) {
			s.direct = false
			b.flushBatch([]uint32{id})
			return
		}
		req.Err = fmt.Errorf("linuring: read [%d,%d): %w",
			req.Off, req.Off+int64(n), errno)
	} else if int(res) < n {
		if err := b.Pread(req, req.Buf[res:], req.Off+int64(res), false); err != nil {
			req.Err = fmt.Errorf("linuring: short transfer %d: %w", res, err)
		}
	}
	filled := n
	if req.Err != nil {
		filled = 0
	}
	b.completeSlot(id, filled)
}

// completeSlot recycles slot id and finishes the request it held.
func (b *Backend) completeSlot(id uint32, filled int) {
	s := &b.slots[id]
	req, dec, start := s.req, s.dec, s.start
	s.req, s.dec, s.start, s.direct = nil, faults.Decision{}, time.Time{}, false
	s.ready.Store(0)
	b.free <- id
	b.complete(req, dec, start, filled)
}

// complete finishes an admitted request and releases its admission (wg)
// after Done returns, so Close's drain observes finished callbacks.
func (b *Backend) complete(req *storage.Request, dec faults.Decision, start time.Time, filled int) {
	b.Complete(req, dec, time.Since(start), filled)
	b.wg.Done()
}

// Close drains outstanding requests, stops the completion goroutine via
// a tagged NOP, tears down the ring, and closes the descriptors.
// Requests submitted afterwards complete with storage.ErrClosed.
func (b *Backend) Close() error {
	if !b.fence.Shut() {
		return nil
	}
	b.wg.Wait()
	b.stopping.Store(true)
	b.submitMu.Lock()
	e := sqe{opcode: opNop, userData: nopUserData}
	b.ring.pushSQE(&e)
	if n := b.ring.flushTail(); n > 0 {
		b.ring.enter(n, 0, 0)
	}
	b.submitMu.Unlock()
	b.reaperWg.Wait()
	b.ring.close()
	return b.Descriptors.Close()
}

// supported probes io_uring availability once: a 1-entry setup that is
// immediately torn down. ENOSYS (kernel too old), EPERM (seccomp or
// sysctl io_uring_disabled), and ENOMEM all land here as "unsupported".
var (
	probeOnce sync.Once
	probeOK   bool
)

func supported() bool {
	probeOnce.Do(func() {
		if u, err := setupRing(1); err == nil {
			u.close()
			probeOK = true
		}
	})
	return probeOK
}
