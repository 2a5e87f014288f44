// Package file is the real-disk entry in the storage-backend registry: a
// storage.Backend over an ordinary os.File, so the training pipeline that
// the paper models against a simulated SSD can point at an actual device
// (-backend=file -data-file=/mnt/nvme/papers.img).
//
// Semantics relative to the simulator:
//
//   - Asynchronous Submit is served by a pool of 8 workers draining one
//     submission queue 1024 deep — the same SQ/CQ shape the ring
//     expects, with the I/O depth bounded by the ring above and the pool
//     size here.
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
//
// The descriptor pair, with the sizing, raw access and degrade-or-reject
// pread around it, is Descriptors; storage/linuring embeds it too.
package file

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/storage"
)

const (
	// sectorSize is the direct-I/O granularity: O_DIRECT offsets and
	// lengths are multiples of it, and data files are sized to whole
	// sectors.
	sectorSize = 512
	// workers is the pool size serving Submit, mirroring the simulated
	// device's channel count.
	workers = 8
	// queueDepth bounds the submission queue; Submit blocks when it is
	// full, like a saturated SQ.
	queueDepth = 1024
)

// Options tune a file backend.
type Options struct {
	// DisableDirect skips the O_DIRECT descriptor even where the kernel
	// would grant it (every read buffered; DirectDegraded still counts
	// direct-path requests).
	DisableDirect bool
}

// Descriptors is the descriptor pair over one data file: a buffered
// descriptor for raw access, writes and buffered reads, and an O_DIRECT
// one for direct reads where the kernel grants it. It carries the
// backend's fault injector and counters, so a backend embedding it adds
// only its read mechanism, a storage.Fence and Close.
type Descriptors struct {
	storage.Injection
	storage.Counters

	buffered *os.File
	direct   *os.File // nil when O_DIRECT is unavailable
	path     string
	capacity int64
}

// CreateDescriptors creates (or truncates) the file at path sized for
// capacity bytes — rounded up to a whole sector so the direct path can
// address the tail — and opens the pair over it, reporting exactly
// capacity.
func CreateDescriptors(path string, capacity int64, disableDirect bool) (*Descriptors, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("file: capacity %d", capacity)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("file: create backend: %w", err)
	}
	sized := (capacity + sectorSize - 1) / sectorSize * sectorSize
	if err := f.Truncate(sized); err != nil {
		f.Close()
		return nil, fmt.Errorf("file: size backend to %d: %w", sized, err)
	}
	d := &Descriptors{buffered: f, path: path, capacity: capacity}
	if !disableDirect {
		// Best effort: some filesystems reject O_DIRECT (tmpfs before
		// Linux 6.6, some network filesystems); the buffered descriptor
		// then serves direct requests (degradation is visible in
		// Stats.DirectDegraded, never an error).
		if df, err := openDirect(path); err == nil {
			d.direct = df
		}
	}
	return d, nil
}

// Path returns the backing file's path.
func (d *Descriptors) Path() string { return d.path }

// DirectActive reports whether an O_DIRECT descriptor was obtained.
func (d *Descriptors) DirectActive() bool { return d.direct != nil }

// Capacity returns the backend size in bytes.
func (d *Descriptors) Capacity() int64 { return d.capacity }

// SectorSize returns the direct-I/O granularity.
func (d *Descriptors) SectorSize() int { return sectorSize }

// Fds returns the buffered and O_DIRECT descriptor numbers, the second -1
// when there is no O_DIRECT descriptor, for submissions that name a
// descriptor by number (io_uring SQEs).
func (d *Descriptors) Fds() (buffered, direct int32) {
	direct = -1
	if d.direct != nil {
		direct = int32(d.direct.Fd())
	}
	return int32(d.buffered.Fd()), direct
}

// ReadRaw copies file bytes into p untimed (dataset setup, verification).
func (d *Descriptors) ReadRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), d.capacity); err != nil {
		return err
	}
	if _, err := d.buffered.ReadAt(p, off); err != nil {
		return fmt.Errorf("file: raw read at %d: %w", off, err)
	}
	return nil
}

// WriteRaw stores p at off untimed (dataset build).
func (d *Descriptors) WriteRaw(p []byte, off int64) error {
	if err := storage.CheckBounds(off, int64(len(p)), d.capacity); err != nil {
		return err
	}
	if _, err := d.buffered.WriteAt(p, off); err != nil {
		return fmt.Errorf("file: raw write at %d: %w", off, err)
	}
	return nil
}

// WriteSync stores p at off through the buffered descriptor, returning
// the time the caller was blocked on the write.
func (d *Descriptors) WriteSync(p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckBounds(off, int64(len(p)), d.capacity); err != nil {
		return 0, err
	}
	start := time.Now()
	_, err := d.buffered.WriteAt(p, off)
	took := time.Since(start)
	d.AddBusy(took)
	return took, err
}

// UseDirect reports whether req's read into p goes to the O_DIRECT
// descriptor: direct is asked and both the descriptor and p's address
// permit. A direct ask served buffered is counted as degraded, once per
// request.
func (d *Descriptors) UseDirect(req *storage.Request, p []byte, direct bool) bool {
	if !direct {
		return false
	}
	if d.direct != nil && storage.AddrAligned(p, sectorSize) {
		return true
	}
	d.CountDegraded(req)
	return false
}

// Rejected reports whether err is the kernel refusing one O_DIRECT
// transfer at read time — EINVAL for alignment (the device's own
// granularity can exceed sectorSize), ENOTSUP/EOPNOTSUPP where a
// filesystem grants the open but not the I/O — and counts req degraded
// when it is: the caller re-serves it buffered.
func (d *Descriptors) Rejected(req *storage.Request, err error) bool {
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EOPNOTSUPP) {
		d.CountDegraded(req)
		return true
	}
	return false
}

// Pread reads all of p at off for req, on the O_DIRECT descriptor when
// UseDirect allows and on the buffered one otherwise, and re-serves a
// rejected O_DIRECT transfer buffered.
func (d *Descriptors) Pread(req *storage.Request, p []byte, off int64, direct bool) error {
	f := d.buffered
	if d.UseDirect(req, p, direct) {
		f = d.direct
	}
	n, err := f.ReadAt(p, off)
	if err != nil && f == d.direct && d.Rejected(req, err) {
		n, err = d.buffered.ReadAt(p, off)
	}
	if err == io.EOF && n == len(p) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("file: read [%d,%d): %w", off, off+int64(len(p)), err)
	}
	return nil
}

// Close closes both descriptors.
func (d *Descriptors) Close() error {
	err := d.buffered.Close()
	if d.direct != nil {
		if derr := d.direct.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// Backend is a storage.Backend over a regular file: the descriptor pair
// read by a worker pool.
type Backend struct {
	*Descriptors
	*storage.SyncReads

	fence storage.Fence // SubmitBatch's queue sends happen before Close's channel close
	queue chan *storage.Request
	wg    sync.WaitGroup
}

var (
	_ storage.Backend        = (*Backend)(nil)
	_ storage.BatchSubmitter = (*Backend)(nil)
)

// Create creates (or truncates) the file at path sized for capacity bytes
// — rounded up to a whole sector so the direct path can address the tail
// — and returns a backend over it reporting exactly capacity.
func Create(path string, capacity int64, opts Options) (*Backend, error) {
	d, err := CreateDescriptors(path, capacity, opts.DisableDirect)
	if err != nil {
		return nil, err
	}
	b := &Backend{Descriptors: d, queue: make(chan *storage.Request, queueDepth)}
	b.SyncReads = storage.NewSyncReads(b.Submit, sectorSize)
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b, nil
}

// Factory returns a storage.Factory that creates the data file at path
// sized to the requested capacity.
func Factory(path string, opts Options) storage.Factory {
	return func(capacity int64) (storage.Backend, error) {
		return Create(path, capacity, opts)
	}
}

// Submit enqueues an asynchronous read; the Done callback fires on a pool
// worker when the read completes. Submitting to a closed backend completes
// the request with storage.ErrClosed.
func (b *Backend) Submit(req *storage.Request) {
	b.SubmitBatch([]*storage.Request{req})
}

// SubmitBatch enqueues a whole wave under one fence acquisition and one
// clock read (every request of the wave shares its Submitted stamp). Each
// request completes through its own Done exactly as if submitted alone.
func (b *Backend) SubmitBatch(reqs []*storage.Request) {
	b.fence.Admit(reqs, b.Capacity(), b.enqueue)
}

func (b *Backend) enqueue(req *storage.Request) { b.queue <- req }

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
	dec := b.Decide(req.Off, len(req.Buf))
	if errutil.Sleep(req.Ctx, dec.Delay) != nil {
		b.Abandon(req, time.Since(start))
		return
	}
	filled := b.Fault(req, dec)
	if filled > 0 {
		// An injected short-read prefix is not sector-sized, so it must
		// bypass the O_DIRECT descriptor even for direct requests.
		if err := b.Pread(req, req.Buf[:filled], req.Off, req.Direct && req.Err == nil); err != nil && req.Err == nil {
			req.Err = err
			filled = 0
		}
	}
	b.Complete(req, dec, time.Since(start), filled)
}

// Close drains the worker pool and closes the descriptors. Requests
// submitted afterwards complete with storage.ErrClosed.
func (b *Backend) Close() error {
	if !b.fence.Shut() {
		return nil
	}
	close(b.queue)
	b.wg.Wait()
	return b.Descriptors.Close()
}
