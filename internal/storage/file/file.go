// Package file is the real-disk entry in the storage-backend registry: a
// storage.Backend over an ordinary os.File, so the training pipeline that
// the paper models against a simulated SSD can point at an actual device
// (-backend=file -data-file=/mnt/nvme/papers.img).
//
// Semantics relative to the simulator:
//
//   - Asynchronous Submit is served by a bounded worker pool draining one
//     submission queue — the same SQ/CQ shape the ring expects, with the
//     I/O depth bounded by the ring above and the pool size here.
//   - Direct reads use a second O_DIRECT file descriptor when the kernel
//     grants one (Linux, filesystem permitting) AND the destination
//     buffer's memory address is sector-aligned; otherwise the read is
//     served through the buffered descriptor and counted in
//     Stats.DirectDegraded. Some filesystems refuse
//     O_DIRECT, so degradation is the documented, expected fallback
//     there — the alignment *contract* (ErrUnaligned on unaligned
//     offset/length) is enforced either way, exactly as in the sim.
//   - Fault injection consults the same internal/faults schedule as the
//     simulator on every timed read, so the retry/fallback/escalation
//     suites run unchanged against a real file. Straggler delays are
//     wall-clock (there is no TimeScale on real hardware) and honor the
//     request context.
package file

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

// Options tune a file backend.
type Options struct {
	// SectorSize is the direct-I/O granularity (default 512).
	SectorSize int
	// Workers is the completion pool size serving Submit (default 8,
	// mirroring the simulated device's channel count).
	Workers int
	// QueueDepth bounds the submission queue (default 1024); Submit
	// blocks when it is full, like a saturated SQ.
	QueueDepth int
	// DisableDirect skips the O_DIRECT descriptor even where the kernel
	// would grant it (every read buffered; DirectDegraded still counts
	// direct-path requests).
	DisableDirect bool
}

func (o *Options) fill() {
	if o.SectorSize <= 0 {
		o.SectorSize = 512
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
}

// Backend is a storage.Backend over a regular file.
type Backend struct {
	buffered *os.File
	direct   *os.File // nil when O_DIRECT is unavailable
	path     string
	capacity int64
	sector   int

	storage.Injection

	reads          atomic.Int64
	bytesRead      atomic.Int64
	faults         atomic.Int64
	busyNanos      atomic.Int64
	queueNanos     atomic.Int64
	latencyNanos   atomic.Int64
	directDegraded atomic.Int64

	queue chan *storage.Request
	wg    sync.WaitGroup

	// closeMu orders Submit's queue sends before Close's channel close,
	// exactly like the simulator: senders hold the read side, Close the
	// write side, so a request can never race onto a closed queue.
	closeMu sync.RWMutex
	closed  bool
}

var (
	_ storage.Backend        = (*Backend)(nil)
	_ storage.BatchSubmitter = (*Backend)(nil)
)

// Create creates (or truncates) the file at path sized for capacity bytes
// — rounded up to a whole sector so the direct path can address the tail
// — and returns a backend over it reporting exactly capacity.
func Create(path string, capacity int64, opts Options) (*Backend, error) {
	opts.fill()
	if capacity <= 0 {
		return nil, fmt.Errorf("file: capacity %d", capacity)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("file: create backend: %w", err)
	}
	sized := (capacity + int64(opts.SectorSize) - 1) / int64(opts.SectorSize) * int64(opts.SectorSize)
	if err := f.Truncate(sized); err != nil {
		f.Close()
		return nil, fmt.Errorf("file: size backend to %d: %w", sized, err)
	}
	return newBackend(f, path, capacity, opts)
}

// Open returns a backend over an existing file; capacity is its size.
func Open(path string, opts Options) (*Backend, error) {
	opts.fill()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("file: open backend: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return newBackend(f, path, st.Size(), opts)
}

// Factory returns a storage.Factory that creates the data file at path
// sized to the requested capacity.
func Factory(path string, opts Options) storage.Factory {
	return func(capacity int64) (storage.Backend, error) {
		return Create(path, capacity, opts)
	}
}

func newBackend(f *os.File, path string, capacity int64, opts Options) (*Backend, error) {
	b := &Backend{
		buffered: f,
		path:     path,
		capacity: capacity,
		sector:   opts.SectorSize,
		queue:    make(chan *storage.Request, opts.QueueDepth),
	}
	if !opts.DisableDirect {
		// Best effort: some filesystems reject O_DIRECT (tmpfs before
		// Linux 6.6, some network filesystems); the
		// buffered descriptor then serves direct requests (degradation is
		// visible in Stats.DirectDegraded, never an error).
		if df, err := openDirect(path); err == nil {
			b.direct = df
		}
	}
	for i := 0; i < opts.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
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

// ReadRaw copies file bytes into p untimed (dataset setup, verification).
func (b *Backend) ReadRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), b.capacity); err != nil {
		return err
	}
	if _, err := b.buffered.ReadAt(p, off); err != nil {
		return fmt.Errorf("file: raw read at %d: %w", off, err)
	}
	return nil
}

// WriteRaw stores p at off untimed (dataset build).
func (b *Backend) WriteRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), b.capacity); err != nil {
		return err
	}
	if _, err := b.buffered.WriteAt(p, off); err != nil {
		return fmt.Errorf("file: raw write at %d: %w", off, err)
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

// ReadAt performs a synchronous buffered read through the worker pool.
func (b *Backend) ReadAt(p []byte, off int64) (time.Duration, error) {
	return b.ReadAtCtx(nil, p, off)
}

// ReadAtCtx is ReadAt bounded by ctx: cancellation interrupts an injected
// straggler delay and the read returns the context's error promptly.
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

// Submit enqueues an asynchronous read; the Done callback fires on a pool
// worker when the read completes. Submitting to a closed backend completes
// the request with storage.ErrClosed.
func (b *Backend) Submit(req *storage.Request) {
	b.SubmitBatch([]*storage.Request{req})
}

// SubmitBatch enqueues a whole wave under one closeMu acquisition and one
// clock read (every request of the wave shares its Submitted stamp). Each
// request completes through its own Done exactly as if submitted alone;
// one that cannot be queued — out of bounds, or the backend closed — is
// failed with the lock dropped, so a Done callback never runs under
// closeMu.
func (b *Backend) SubmitBatch(reqs []*storage.Request) {
	var now time.Time
	locked := false
	for _, req := range reqs {
		err := storage.CheckBounds(req.Off, int64(len(req.Buf)), b.capacity)
		if err == nil {
			if !locked {
				b.closeMu.RLock()
				locked = true
				now = time.Now()
			}
			if !b.closed {
				req.Submitted = now
				b.queue <- req
				continue
			}
			err = storage.ErrClosed
		}
		if locked {
			b.closeMu.RUnlock()
			locked = false
		}
		req.Err = err
		if req.Done != nil {
			req.Done(req)
		}
	}
	if locked {
		b.closeMu.RUnlock()
	}
}

func (b *Backend) worker() {
	defer b.wg.Done()
	for req := range b.queue {
		b.serve(req)
	}
}

// serve executes one request: fault decision, optional ctx-aware
// straggler delay, then the pread (direct descriptor when permitted).
func (b *Backend) serve(req *storage.Request) {
	start := time.Now()
	b.queueNanos.Add(int64(start.Sub(req.Submitted)))
	dec := b.Decide(req.Off, len(req.Buf))
	if dec.Delay > 0 {
		if !sleepCtx(req.Ctx, dec.Delay) {
			req.Err = fmt.Errorf("file: read [%d,%d) abandoned: %w",
				req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
			b.complete(req, start, 0)
			return
		}
	}
	if req.Ctx != nil && req.Ctx.Err() != nil {
		req.Err = fmt.Errorf("file: read [%d,%d) abandoned: %w",
			req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
		b.complete(req, start, 0)
		return
	}
	filled := len(req.Buf)
	if dec.Err != nil {
		// Short reads deliver a prefix; other faults deliver nothing.
		filled = dec.Bytes
		req.Err = dec.Err
		b.faults.Add(1)
	}
	if filled > 0 {
		// An injected short-read prefix is not sector-sized, so it must
		// bypass the O_DIRECT descriptor even for direct requests.
		if err := b.pread(req, req.Buf[:filled], req.Off, req.Direct && req.Err == nil); err != nil && req.Err == nil {
			req.Err = err
			filled = 0
		}
	}
	if req.Err == nil {
		// Silent corruption flips a bit of the returned bytes after the
		// pread — the file is intact, the transfer lied. Counted as a
		// fault even though the request reports success.
		if dec.Corrupt {
			b.faults.Add(1)
		}
		faults.ApplyCorruption(dec, req.Buf[:filled])
	}
	b.complete(req, start, filled)
}

func (b *Backend) complete(req *storage.Request, serviceStart time.Time, filled int) {
	now := time.Now()
	svc := now.Sub(serviceStart)
	req.Latency = now.Sub(req.Submitted)
	b.reads.Add(1)
	b.bytesRead.Add(int64(filled))
	b.busyNanos.Add(int64(svc))
	b.latencyNanos.Add(int64(req.Latency))
	if req.Done != nil {
		req.Done(req)
	}
}

// pread reads into p from the direct descriptor when the request asked
// for direct I/O and both the descriptor and the buffer address permit,
// else from the buffered one. Every buffered service of a direct ask is
// a degradation, counted once per request via the shared stamp — the
// runtime-rejection retry below re-enters the degraded branch for the
// same request and must not double-count it.
func (b *Backend) pread(req *storage.Request, p []byte, off int64, direct bool) error {
	f := b.buffered
	if direct {
		if b.direct != nil && storage.AddrAligned(p, b.sector) {
			f = b.direct
		} else {
			req.CountDegraded(&b.directDegraded)
		}
	}
	n, err := f.ReadAt(p, off)
	if err != nil && f == b.direct && isDirectRejection(err) {
		// The kernel accepted the descriptor at open but rejected this
		// transfer (the device's own alignment granularity can exceed the
		// configured sector size). Retry the same request buffered.
		req.CountDegraded(&b.directDegraded)
		n, err = b.buffered.ReadAt(p, off)
	}
	if err == io.EOF && n == len(p) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("file: read [%d,%d): %w", off, off+int64(len(p)), err)
	}
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

// Close drains the worker pool and closes the descriptors. Requests
// submitted afterwards complete with storage.ErrClosed.
func (b *Backend) Close() error {
	b.closeMu.Lock()
	if b.closed {
		b.closeMu.Unlock()
		return nil
	}
	b.closed = true
	b.closeMu.Unlock()
	close(b.queue)
	b.wg.Wait()
	err := b.buffered.Close()
	if b.direct != nil {
		if derr := b.direct.Close(); err == nil {
			err = derr
		}
	}
	return err
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
