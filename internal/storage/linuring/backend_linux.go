//go:build linux

package linuring

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
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

// fixedRegion is one registered buffer: [base, end) resolves reads into
// it to IORING_OP_READ_FIXED with the given table index.
type fixedRegion struct {
	base, end uintptr
	index     uint16
}

// Backend is a storage.Backend over a regular file whose asynchronous
// reads are served by a Linux io_uring: SubmitBatch encodes a whole read
// plan as SQEs and issues a single io_uring_enter, and buffers inside a
// RegisterBuffers region use READ_FIXED to skip per-read page pinning.
// The synchronous and raw paths mirror storage/file.
type Backend struct {
	buffered *os.File
	direct   *os.File // nil when O_DIRECT is unavailable
	bufFd    int32
	dirFd    int32
	path     string
	capacity int64
	sector   int

	storage.Injection

	ring  *uring
	slots []slot
	free  chan uint32

	// submitMu serializes SQE population, io_uring_enter for submission,
	// and the fixed-buffer table (buildSQE reads it on every submit).
	submitMu sync.Mutex
	fixed    []fixedRegion
	iovecs   []syscall.Iovec

	reads          atomic.Int64
	bytesRead      atomic.Int64
	faults         atomic.Int64
	busyNanos      atomic.Int64
	queueNanos     atomic.Int64
	latencyNanos   atomic.Int64
	directDegraded atomic.Int64

	enters     atomic.Int64 // io_uring_enter calls that submitted reads
	batches    atomic.Int64 // SubmitBatch/Submit admissions that reached the ring
	fixedReads atomic.Int64 // reads submitted as READ_FIXED

	// closeMu orders admissions (closed check + wg.Add) before Close's
	// transition, like the other backends' submit/close fence. wg counts
	// admitted requests; Close waits it out before killing the ring, so
	// every in-flight slot — including delayed fault goroutines that
	// re-enter the ring — completes against a live ring.
	closeMu   sync.RWMutex
	closed    bool
	wg        sync.WaitGroup
	stopping  atomic.Bool
	reaperWg  sync.WaitGroup
	reapFault atomic.Pointer[error] // first unexpected reaper error, for tests
}

var (
	_ storage.Backend         = (*Backend)(nil)
	_ storage.BatchSubmitter  = (*Backend)(nil)
	_ storage.BufferRegistrar = (*Backend)(nil)
)

// Create creates (or truncates) the file at path sized for capacity
// bytes — rounded up to a whole sector, as in storage/file — and returns
// an io_uring backend over it. It fails with an error wrapping
// ErrUnsupported when the kernel refuses io_uring or the EnvDisable
// environment switch is set; FallbackFactory turns that into a file
// backend instead.
func Create(path string, capacity int64, opts Options) (storage.Backend, error) {
	opts.fill()
	if capacity <= 0 {
		return nil, fmt.Errorf("linuring: capacity %d", capacity)
	}
	if !Supported() {
		return nil, fmt.Errorf("linuring: create %s: %w", path, ErrUnsupported)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("linuring: create backend: %w", err)
	}
	sized := (capacity + int64(opts.SectorSize) - 1) / int64(opts.SectorSize) * int64(opts.SectorSize)
	if err := f.Truncate(sized); err != nil {
		f.Close()
		return nil, fmt.Errorf("linuring: size backend to %d: %w", sized, err)
	}
	return newBackend(f, path, capacity, opts)
}

// Open returns an io_uring backend over an existing file; capacity is
// its size. Like Create it requires Supported().
func Open(path string, opts Options) (storage.Backend, error) {
	opts.fill()
	if !Supported() {
		return nil, fmt.Errorf("linuring: open %s: %w", path, ErrUnsupported)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("linuring: open backend: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return newBackend(f, path, st.Size(), opts)
}

func newBackend(f *os.File, path string, capacity int64, opts Options) (*Backend, error) {
	u, err := setupRing(opts.Entries)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	b := &Backend{
		buffered: f,
		bufFd:    int32(f.Fd()),
		dirFd:    -1,
		path:     path,
		capacity: capacity,
		sector:   opts.SectorSize,
		ring:     u,
		slots:    make([]slot, u.entries),
		free:     make(chan uint32, u.entries),
	}
	for i := uint32(0); i < u.entries; i++ {
		b.free <- i
	}
	if !opts.DisableDirect {
		if df, derr := os.OpenFile(path, os.O_RDONLY|syscall.O_DIRECT, 0); derr == nil {
			b.direct = df
			b.dirFd = int32(df.Fd())
		}
	}
	b.reaperWg.Add(1)
	go b.reaper()
	return b, nil
}

// Path returns the backing file's path.
func (b *Backend) Path() string { return b.path }

// DirectActive reports whether an O_DIRECT descriptor was obtained.
func (b *Backend) DirectActive() bool { return b.direct != nil }

// Capacity returns the backend size in bytes.
func (b *Backend) Capacity() int64 { return b.capacity }

// SectorSize returns the direct-I/O granularity.
func (b *Backend) SectorSize() int { return b.sector }

// RingStats exposes the io_uring-specific counters: submission enters,
// admitted batches, READ_FIXED submissions, and how many fixed-buffer
// regions are registered. The bench and the batching tests read these.
func (b *Backend) RingStats() RingStats {
	b.submitMu.Lock()
	regions := len(b.fixed)
	b.submitMu.Unlock()
	return RingStats{
		Enters:       b.enters.Load(),
		Batches:      b.batches.Load(),
		FixedReads:   b.fixedReads.Load(),
		FixedRegions: regions,
		Entries:      int(b.ring.entries),
	}
}

// ReadRaw copies file bytes into p untimed (dataset setup, verification).
func (b *Backend) ReadRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), b.capacity); err != nil {
		return err
	}
	if _, err := b.buffered.ReadAt(p, off); err != nil {
		return fmt.Errorf("linuring: raw read at %d: %w", off, err)
	}
	return nil
}

// WriteRaw stores p at off untimed (dataset build).
func (b *Backend) WriteRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), b.capacity); err != nil {
		return err
	}
	if _, err := b.buffered.WriteAt(p, off); err != nil {
		return fmt.Errorf("linuring: raw write at %d: %w", off, err)
	}
	return nil
}

// WriteSync stores p at off through the buffered descriptor, returning
// the time the caller was blocked on the write.
func (b *Backend) WriteSync(p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckBounds(off, int64(len(p)), b.capacity); err != nil {
		return 0, err
	}
	start := time.Now()
	_, err := b.buffered.WriteAt(p, off)
	d := time.Since(start)
	b.busyNanos.Add(int64(d))
	return d, err
}

// ReadAt performs a synchronous buffered read through the ring.
func (b *Backend) ReadAt(p []byte, off int64) (time.Duration, error) {
	return b.ReadAtCtx(nil, p, off)
}

// ReadAtCtx is ReadAt bounded by ctx: cancellation interrupts an
// injected straggler delay and the read returns the context's error.
func (b *Backend) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return storage.SyncRead(ctx, b, p, off, false)
}

// ReadDirect is ReadAt with the direct-I/O alignment constraint.
func (b *Backend) ReadDirect(p []byte, off int64) (time.Duration, error) {
	return b.ReadDirectCtx(nil, p, off)
}

// ReadDirectCtx is ReadDirect bounded by ctx, like ReadAtCtx.
func (b *Backend) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckAlign(off, len(p), b.sector); err != nil {
		return 0, err
	}
	return storage.SyncRead(ctx, b, p, off, true)
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
// there or rejoin the ring after their delay.
func (b *Backend) SubmitBatch(reqs []*storage.Request) {
	if len(reqs) == 0 {
		return
	}
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	sp := slotIDs.Get().(*[]uint32)
	batch := (*sp)[:0]
	ringed := false
	for _, req := range reqs {
		if err := storage.CheckBounds(req.Off, int64(len(req.Buf)), b.capacity); err != nil {
			req.Err = err
			if req.Done != nil {
				req.Done(req)
			}
			continue
		}
		if b.closed {
			req.Err = storage.ErrClosed
			if req.Done != nil {
				req.Done(req)
			}
			continue
		}
		req.Submitted = time.Now()
		b.wg.Add(1)
		if req.Ctx != nil && req.Ctx.Err() != nil {
			req.Err = fmt.Errorf("linuring: read [%d,%d) abandoned: %w",
				req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
			b.completeReq(req, req.Submitted, 0)
			continue
		}
		if len(req.Buf) == 0 {
			b.completeReq(req, req.Submitted, 0)
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
	*sp = batch[:0]
	slotIDs.Put(sp)
	if ringed {
		b.batches.Add(1)
	}
}

// slotIDs recycles SubmitBatch's slot-id scratch: concurrent submitters
// (several extractors, page-cache waves) each need their own, and a
// pooled *[]uint32 keeps the steady-state submission allocation-free.
var slotIDs = sync.Pool{New: func() any {
	s := make([]uint32, 0, 64)
	return &s
}}

// recordSlot fills slot id with req's service state. Blocking on the
// free channel is safe even under closeMu's read lock: the reaper frees
// slots without touching closeMu.
func (b *Backend) recordSlot(id uint32, req *storage.Request, dec faults.Decision) {
	s := &b.slots[id]
	s.req = req
	s.dec = dec
	s.start = time.Now()
	s.direct = req.Direct && b.direct != nil && storage.AddrAligned(req.Buf, b.sector)
	if req.Direct && !s.direct {
		req.CountDegraded(&b.directDegraded)
	}
	b.queueNanos.Add(int64(s.start.Sub(req.Submitted)))
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

// buildSQE encodes slot id as a read SQE: READ_FIXED with the matching
// table index when the buffer lies in a registered region, plain READ
// otherwise. Caller holds submitMu.
func (b *Backend) buildSQE(id uint32) sqe {
	s := &b.slots[id]
	req := s.req
	fd := b.bufFd
	if s.direct {
		fd = b.dirFd
	}
	e := sqe{
		opcode:   opRead,
		fd:       fd,
		off:      uint64(req.Off),
		addr:     uint64(uintptr(unsafe.Pointer(&req.Buf[0]))),
		len:      uint32(len(req.Buf)),
		userData: uint64(id),
	}
	if idx, ok := b.fixedIndex(req.Buf); ok {
		e.opcode = opReadFixed
		e.bufIndex = idx
		b.fixedReads.Add(1)
	}
	return e
}

// fixedIndex resolves a buffer to its registered region. Caller holds
// submitMu.
func (b *Backend) fixedIndex(p []byte) (uint16, bool) {
	if len(b.fixed) == 0 || len(p) == 0 {
		return 0, false
	}
	base := uintptr(unsafe.Pointer(&p[0]))
	end := base + uintptr(len(p))
	for _, r := range b.fixed {
		if base >= r.base && end <= r.end {
			return r.index, true
		}
	}
	return 0, false
}

// serveSlow runs a fault-injected request off the ring: a straggler
// delay is slept out (honoring the request context), an injected error
// completes with at most a short-read prefix, and a delay-only request
// rejoins the ring afterwards so it still performs real device I/O.
// The request was admitted before this goroutine started, so the ring
// outlives it even if Close has begun.
func (b *Backend) serveSlow(req *storage.Request, dec faults.Decision) {
	start := time.Now()
	b.queueNanos.Add(int64(start.Sub(req.Submitted)))
	if dec.Delay > 0 && !sleepCtx(req.Ctx, dec.Delay) {
		req.Err = fmt.Errorf("linuring: read [%d,%d) abandoned: %w",
			req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
		b.completeReq(req, start, 0)
		return
	}
	if req.Ctx != nil && req.Ctx.Err() != nil {
		req.Err = fmt.Errorf("linuring: read [%d,%d) abandoned: %w",
			req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
		b.completeReq(req, start, 0)
		return
	}
	if dec.Err == nil {
		// Delay only: the read itself proceeds through the ring.
		dec.Delay = 0
		id := <-b.free
		b.recordSlot(id, req, dec)
		b.slots[id].start = start // keep the pre-delay service start
		b.flushBatch([]uint32{id})
		return
	}
	// Injected error: short reads deliver a prefix, other faults nothing.
	req.Err = dec.Err
	b.faults.Add(1)
	filled := dec.Bytes
	if filled > 0 {
		// A prefix is not sector-sized; serve it buffered like storage/file.
		if _, err := b.buffered.ReadAt(req.Buf[:filled], req.Off); err != nil && err != io.EOF {
			filled = 0
		}
	}
	b.completeReq(req, start, filled)
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
// re-submits the same slot buffered (counted once as a degradation via
// the request's shared stamp), a short transfer is topped up through the
// buffered descriptor, and a clean read gets its injected silent
// corruption applied before completing.
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
		if s.direct && isDirectRejection(errno) {
			req.CountDegraded(&b.directDegraded)
			s.direct = false
			b.flushBatch([]uint32{id})
			return
		}
		req.Err = fmt.Errorf("linuring: read [%d,%d): %w",
			req.Off, req.Off+int64(n), errno)
	} else if int(res) < n {
		m, err := b.buffered.ReadAt(req.Buf[res:], req.Off+int64(res))
		if err == io.EOF && int(res)+m == n {
			err = nil
		}
		if err != nil {
			req.Err = fmt.Errorf("linuring: read [%d,%d): short transfer %d: %w",
				req.Off, req.Off+int64(n), res, err)
		}
	}
	filled := n
	if req.Err != nil {
		filled = 0
	} else {
		if s.dec.Corrupt {
			b.faults.Add(1)
		}
		faults.ApplyCorruption(s.dec, req.Buf[:filled])
	}
	b.completeSlot(id, filled)
}

// completeSlot finishes the request in slot id and recycles the slot.
func (b *Backend) completeSlot(id uint32, filled int) {
	s := &b.slots[id]
	req, start := s.req, s.start
	s.req, s.dec, s.start, s.direct = nil, faults.Decision{}, time.Time{}, false
	s.ready.Store(0)
	b.free <- id
	b.completeReq(req, start, filled)
}

// completeReq mirrors the file backend's completion bookkeeping and
// releases the request's admission (wg) after Done returns, so Close's
// drain observes finished callbacks.
func (b *Backend) completeReq(req *storage.Request, serviceStart time.Time, filled int) {
	svc := time.Since(serviceStart)
	req.Latency = time.Since(req.Submitted)
	b.reads.Add(1)
	b.bytesRead.Add(int64(filled))
	b.busyNanos.Add(int64(svc))
	b.latencyNanos.Add(int64(req.Latency))
	if req.Done != nil {
		req.Done(req)
	}
	b.wg.Done()
}

// RegisterBuffers registers the given sector-aligned regions as a fixed
// buffer table (cumulative across calls; a region already registered is
// kept, not duplicated). io_uring replaces the whole table on each
// registration, so the previous table is unregistered first; failure
// restores the unregistered state and the backend keeps serving every
// read on the plain READ path.
func (b *Backend) RegisterBuffers(regions ...[]byte) error {
	b.submitMu.Lock()
	defer b.submitMu.Unlock()
	iovecs := b.iovecs
	fixed := b.fixed
	for _, r := range regions {
		if len(r) == 0 {
			continue
		}
		if !storage.AddrAligned(r, b.sector) {
			return fmt.Errorf("linuring: register buffers: region %p not %d-aligned",
				&r[0], b.sector)
		}
		base := uintptr(unsafe.Pointer(&r[0]))
		dup := false
		for _, f := range fixed {
			if f.base == base {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		fixed = append(fixed, fixedRegion{base: base, end: base + uintptr(len(r)),
			index: uint16(len(iovecs))})
		iovecs = append(iovecs, syscall.Iovec{Base: &r[0], Len: uint64(len(r))})
	}
	if len(iovecs) == len(b.iovecs) {
		return nil
	}
	if len(b.iovecs) > 0 {
		if err := b.ring.register(unregisterBuffers, nil, 0); err != nil {
			return fmt.Errorf("linuring: replace buffer table: %w", err)
		}
		b.iovecs, b.fixed = nil, nil
	}
	if err := b.ring.register(registerBuffers, unsafe.Pointer(&iovecs[0]), len(iovecs)); err != nil {
		return err
	}
	b.iovecs, b.fixed = iovecs, fixed
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (b *Backend) Stats() storage.Stats {
	return storage.Stats{
		Reads:          b.reads.Load(),
		BytesRead:      b.bytesRead.Load(),
		Faults:         b.faults.Load(),
		BusyTime:       time.Duration(b.busyNanos.Load()),
		QueueTime:      time.Duration(b.queueNanos.Load()),
		TotalLatency:   time.Duration(b.latencyNanos.Load()),
		DirectDegraded: b.directDegraded.Load(),
	}
}

// Close drains outstanding requests, stops the completion goroutine via
// a tagged NOP, tears down the ring, and closes the descriptors.
// Requests submitted afterwards complete with storage.ErrClosed.
func (b *Backend) Close() error {
	b.closeMu.Lock()
	if b.closed {
		b.closeMu.Unlock()
		return nil
	}
	b.closed = true
	b.closeMu.Unlock()
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
	err := b.buffered.Close()
	if b.direct != nil {
		if derr := b.direct.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// isDirectRejection matches the errno family the kernel uses to refuse
// an individual O_DIRECT transfer at read time (same set as
// storage/file): EINVAL for alignment, ENOTSUP/EOPNOTSUPP where the
// filesystem granted the open but not the I/O.
func isDirectRejection(errno syscall.Errno) bool {
	return errno == syscall.EINVAL || errno == syscall.ENOTSUP ||
		errno == syscall.EOPNOTSUPP
}

// sleepCtx sleeps d, returning false early if ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
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
