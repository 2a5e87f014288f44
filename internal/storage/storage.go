// Package storage defines the storage seam of the data path: the Backend
// interface is exactly the contract the stack above it — graph.Dataset,
// pagecache, uring.Ring, the extractor, the dataset builders — consumes
// from a device, so the same training pipeline can run against the SSD
// simulator (storage/sim, the paper-model substrate every experiment uses)
// or a real file on a real disk (storage/file, direct I/O best-effort).
//
// The contract, in brief:
//
//   - Capacity/SectorSize describe the device; direct reads must be
//     sector-aligned (CheckAlign is the shared gate, ErrUnaligned the one
//     sentinel every layer matches).
//   - ReadRaw/WriteRaw are untimed setup accessors for dataset build and
//     verification; WriteSync is the timed write baselines use on the
//     training path.
//   - ReadAt/ReadAtCtx and ReadDirect/ReadDirectCtx are synchronous timed
//     reads; the Ctx variants abandon the wait promptly on cancellation
//     (most notably under an injected straggler delay).
//   - Submit is the asynchronous path: the request's Done callback fires
//     on a backend goroutine when the read completes. Submitting to a
//     closed backend completes the request with ErrClosed — never a panic
//     — so pipeline teardown can race Close safely.
//   - SetInjector attaches a deterministic fault-injection schedule
//     (internal/faults); every timed read consults it, so the fault and
//     retry suites run identically against any backend.
package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gnndrive/internal/faults"
)

// ErrClosed is returned for requests submitted after Close. All backends
// share this one sentinel so callers match a single identity.
var ErrClosed = errors.New("storage: backend closed")

// ErrUnaligned is returned by the direct-read paths when the offset or
// length violates the sector alignment; callers degrade to buffered I/O
// (§4.4's fallback ladder). It is the single alignment sentinel every
// layer matches.
var ErrUnaligned = errors.New("storage: direct read not sector-aligned")

// ErrChecksum is returned by the integrity layer (storage/integrity) when
// a read's block checksum does not match the recorded CRC32C and the
// repair budget could not heal it. Like the other sentinels it is matched
// with errors.Is; it is never retryable — the integrity layer has already
// spent its re-read budget before surfacing it.
var ErrChecksum = errors.New("storage: block checksum mismatch")

// ErrQuarantined is returned by the integrity layer for reads touching a
// block that previously failed verification persistently: the block is
// fenced off until it is rewritten. Errors carrying this sentinel also
// match ErrChecksum, so callers that only classify the failure as
// corruption need a single errors.Is.
var ErrQuarantined = errors.New("storage: block quarantined")

// IntegrityStats are the cumulative counters of the integrity layer:
// checksum verification, read-repair and quarantine. The zero value
// means "no integrity layer".
type IntegrityStats struct {
	// VerifiedReads counts reads whose covered blocks all verified clean
	// (possibly after repair); UnverifiedReads counts reads that touched
	// at least one block with no recorded checksum (legacy data written
	// outside the integrity layer and not covered by a sidecar).
	VerifiedReads   int64
	UnverifiedReads int64
	// ChecksumFailures counts block-checksum mismatches detected;
	// Repairs counts mismatched blocks healed by an untimed re-read;
	// Quarantined counts blocks fenced off after the repair budget ran
	// out (every later read of them fails with ErrQuarantined).
	ChecksumFailures int64
	Repairs          int64
	Quarantined      int64
	// HedgesIssued is always zero: the layer issues no duplicate reads.
	// It stays only because the benchmark's integrity.hedges metric still
	// reads it; both go together.
	HedgesIssued int64
}

// Add returns the field-wise sum s + o.
func (s IntegrityStats) Add(o IntegrityStats) IntegrityStats {
	s.VerifiedReads += o.VerifiedReads
	s.UnverifiedReads += o.UnverifiedReads
	s.ChecksumFailures += o.ChecksumFailures
	s.Repairs += o.Repairs
	s.Quarantined += o.Quarantined
	s.HedgesIssued += o.HedgesIssued
	return s
}

// Sub returns the field-wise difference s - o (an interval between two
// snapshots).
func (s IntegrityStats) Sub(o IntegrityStats) IntegrityStats {
	s.VerifiedReads -= o.VerifiedReads
	s.UnverifiedReads -= o.UnverifiedReads
	s.ChecksumFailures -= o.ChecksumFailures
	s.Repairs -= o.Repairs
	s.Quarantined -= o.Quarantined
	s.HedgesIssued -= o.HedgesIssued
	return s
}

// IntegrityStatser is implemented by backends that carry an integrity
// layer (storage/integrity's wrapper). Consumers that want the counters
// without a package dependency assert this interface on their Backend.
type IntegrityStatser interface {
	IntegrityStats() IntegrityStats
}

// Request is one asynchronous read submitted to a backend.
type Request struct {
	Buf  []byte
	Off  int64
	User uint64 // caller cookie (e.g. node index), returned on completion
	Err  error
	// Direct asks the backend to use its direct-I/O path when it has one
	// (storage/file routes these through the O_DIRECT descriptor when the
	// buffer address permits). The caller has already passed CheckAlign;
	// backends without a distinct direct path ignore the flag.
	Direct bool
	// Ctx, when non-nil, bounds the request's service wait: if it is
	// cancelled while the backend delays the request (most notably a
	// fault-injected straggler), the request completes promptly with the
	// context's error instead of blocking pipeline teardown.
	Ctx context.Context
	// Done is invoked on a backend goroutine when the request completes.
	// It must not block for long.
	Done func(*Request)

	// Submitted is stamped by the backend at submit time and is how
	// Latency is computed; callers leave it zero.
	Submitted time.Time
	// Latency is the total submit-to-complete duration (queueing +
	// service), available inside Done and after completion.
	Latency time.Duration

	// degraded is the once-per-request degradation stamp consumed by
	// Counters.CountDegraded.
	degraded atomic.Bool
}

// ResetForReuse clears completion and bookkeeping state so a pooled
// Request can be reused as a new logical read. Buf, Off, User, Direct,
// Ctx, and Done are the caller's to refill.
func (r *Request) ResetForReuse() {
	r.Err = nil
	r.Submitted = time.Time{}
	r.Latency = 0
	r.degraded.Store(false)
}

// Stats are cumulative backend counters.
type Stats struct {
	Reads     int64
	BytesRead int64
	Faults    int64         // requests completed with an injected fault (error or silent corruption)
	BusyTime  time.Duration // summed service time
	QueueTime time.Duration // summed wait before service
	// TotalLatency sums submit-to-complete time over all reads.
	TotalLatency time.Duration
	// DirectDegraded counts direct reads a backend had to serve through
	// its buffered path (storage/file: O_DIRECT unavailable or the buffer
	// address unaligned). Zero for the simulator, whose direct path has no
	// separate descriptor.
	DirectDegraded int64
}

// Backend is a storage device the training stack can run against. The
// method set is exactly what graph, pagecache, uring, core, and the
// baselines consume; see the package comment for the semantics each
// implementation must honor (storagetest.RunConformance enforces them).
type Backend interface {
	// Capacity returns the device size in bytes.
	Capacity() int64
	// SectorSize returns the direct-I/O access granularity.
	SectorSize() int

	// ReadRaw copies device bytes into p with no modeled cost or timing —
	// dataset setup and test verification only, never on a timed path.
	ReadRaw(p []byte, off int64) error
	// WriteRaw stores p at off untimed (dataset build).
	WriteRaw(p []byte, off int64) error
	// WriteSync stores p at off, blocking for the device's write cost,
	// and returns the time the caller was blocked. Used by systems that
	// write on the training path (e.g. Ginex persisting superbatches).
	WriteSync(p []byte, off int64) (time.Duration, error)

	// ReadAt performs a synchronous buffered read, blocking the caller
	// for the device's queueing + service time, which it returns.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// ReadAtCtx is ReadAt bounded by ctx: a cancellation interrupts the
	// service wait (including injected straggler delays) and the read
	// returns the context's error promptly.
	ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error)
	// ReadDirect is ReadAt with the direct-I/O alignment constraint:
	// offset and length must be multiples of the sector size, or the
	// read fails with ErrUnaligned.
	ReadDirect(p []byte, off int64) (time.Duration, error)
	// ReadDirectCtx is ReadDirect bounded by ctx, like ReadAtCtx.
	ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error)

	// Submit enqueues an asynchronous read; req.Done fires on completion.
	// Submitting to a closed backend completes req with ErrClosed.
	Submit(req *Request)

	// Stats returns a snapshot of the cumulative counters.
	Stats() Stats

	// SetInjector attaches (or, with nil, detaches) a fault injector
	// consulted by every timed read.
	SetInjector(in *faults.Injector)
	// Injector returns the attached fault injector, or nil.
	Injector() *faults.Injector

	// Close stops the backend. Outstanding requests drain first; requests
	// submitted afterwards complete with ErrClosed. Close is idempotent.
	Close() error
}

// BatchSubmitter is implemented by backends that can submit many
// asynchronous reads in one kernel round trip: the linuring backend
// encodes the whole slice as SQEs and issues a single io_uring_enter.
// Each request still completes individually through its Done callback,
// exactly as if it had been passed to Submit.
type BatchSubmitter interface {
	SubmitBatch(reqs []*Request)
}

// SubmitAll submits reqs through b's batched path when it has one,
// falling back to per-request Submit calls. A nil or empty slice is a
// no-op.
func SubmitAll(b Backend, reqs []*Request) {
	if len(reqs) == 0 {
		return
	}
	if bs, ok := b.(BatchSubmitter); ok {
		bs.SubmitBatch(reqs)
		return
	}
	for _, r := range reqs {
		b.Submit(r)
	}
}

// syncWaiter is the pooled record behind SyncRead: one Request whose Done
// is bound once to a send on its 1-buffered channel. SyncRead always
// waits for that send before returning the record, so a recycled waiter
// never has a completion outstanding.
type syncWaiter struct {
	req  Request
	done chan struct{}
}

func (w *syncWaiter) signal(*Request) { w.done <- struct{}{} }

var syncWaiters = sync.Pool{New: func() any {
	w := &syncWaiter{done: make(chan struct{}, 1)}
	w.req.Done = w.signal
	return w
}}

// SyncRead performs one blocking read of p at off through b.Submit and
// returns how long the caller waited. It is the shared body of the
// backends' synchronous read methods, so whatever Submit does — worker
// pool, ring, verification — applies to them uniformly. ctx (nil
// permitted) rides the request; the caller has already passed CheckAlign
// when direct is set.
func SyncRead(ctx context.Context, b Backend, p []byte, off int64, direct bool) (time.Duration, error) {
	w := syncWaiters.Get().(*syncWaiter)
	req := &w.req
	req.ResetForReuse()
	req.Buf, req.Off, req.Direct, req.Ctx = p, off, direct, ctx
	start := time.Now()
	b.Submit(req)
	<-w.done
	waited, err := time.Since(start), req.Err
	req.Buf, req.Ctx = nil, nil
	syncWaiters.Put(w)
	return waited, err
}

// BufferRegistrar is the method set of a backend that pre-registers
// fixed I/O memory (io_uring registered buffers). Nothing outside the
// benchmark implements it: every backend reads into unregistered memory.
// It stays only until the benchmark's backend probe stops naming it;
// both go together.
type BufferRegistrar interface {
	RegisterBuffers(regions ...[]byte) error
}

// Factory builds a backend of at least the given capacity. graph.Load and
// the dataset builders take a Factory so the same container file can be
// materialized onto any backend.
type Factory func(capacity int64) (Backend, error)

// CheckAlign validates the direct-I/O constraint for a read of n bytes at
// off and returns a wrapped ErrUnaligned on violation. Every backend (and
// the ring's submission gate) shares this one check so the error identity
// and the failure text agree across the stack.
func CheckAlign(off int64, n, sector int) error {
	ss := int64(sector)
	if ss <= 0 || off%ss != 0 || int64(n)%ss != 0 {
		return fmt.Errorf("%w: [%d,%d) not %d-aligned", ErrUnaligned, off, off+int64(n), sector)
	}
	return nil
}

// CheckBounds validates that [off, off+n) lies inside a device of the
// given capacity.
func CheckBounds(off, n, capacity int64) error {
	if off < 0 || off+n > capacity {
		return fmt.Errorf("storage: read [%d,%d) outside capacity %d", off, off+n, capacity)
	}
	return nil
}

// Injection is the embeddable SetInjector/Injector implementation shared
// by backends: an atomic injector pointer plus a nil-safe Decide.
type Injection struct {
	inj atomic.Pointer[faults.Injector]
}

// SetInjector attaches (or, with nil, detaches) a fault injector. Reads
// already in flight keep the schedule they were decided under; new
// requests consult the new injector.
func (i *Injection) SetInjector(in *faults.Injector) { i.inj.Store(in) }

// Injector returns the attached fault injector, or nil.
func (i *Injection) Injector() *faults.Injector { return i.inj.Load() }

// Decide rolls the fault decision for a read, or returns a clean decision
// when no injector is attached.
func (i *Injection) Decide(off int64, n int) faults.Decision {
	if in := i.inj.Load(); in != nil {
		return in.Decide(off, n)
	}
	return faults.Decision{}
}

// AddrAligned reports whether p's backing address is an align multiple
// (the O_DIRECT memory-alignment requirement; empty slices pass).
func AddrAligned(p []byte, align int) bool {
	if len(p) == 0 || align <= 1 {
		return true
	}
	return uintptr(unsafe.Pointer(&p[0]))%uintptr(align) == 0
}

// AlignedBuf returns an n-byte slice whose backing address is a multiple
// of align (a power of two or any positive divisor of the allocation
// slack). O_DIRECT reads require the memory buffer, not just the file
// offset, to be sector-aligned; the staging pool and the I/O benchmarks
// allocate through this so the file backend's direct path is reachable.
func AlignedBuf(n, align int) []byte {
	if align <= 1 {
		return make([]byte, n)
	}
	raw := make([]byte, n+align)
	pad := 0
	if rem := int(uintptr(unsafe.Pointer(&raw[0])) % uintptr(align)); rem != 0 {
		pad = align - rem
	}
	return raw[pad : pad+n : pad+n]
}
