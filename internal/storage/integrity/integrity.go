// Package integrity is the storage stack's data-integrity layer
// (DESIGN.md §11): a composable storage.Backend wrapper that
//
//   - keeps a CRC32C checksum per aligned block, maintained write-through
//     on WriteRaw/WriteSync and verified on every timed read;
//   - repairs transient corruption by re-reading the block through the
//     untimed raw path (which bypasses fault injection and, on the file
//     backend, the O_DIRECT descriptor) under an errutil.Policy budget,
//     quarantining the block and failing with storage.ErrChecksum +
//     storage.ErrQuarantined when the mismatch persists;
//   - persists the checksum table in a sidecar file ("<container>.crc")
//     so a later process that loads the container adopts it and verifies
//     the blocks an earlier one wrote.
//
// The wrapper never changes a read's path: a Direct request reaches the
// inner backend Direct, so the page cache stays topology's (the paper's
// design point 5).
//
// The wrapper composes over any Backend (sim or file) via Wrap or
// WrapFactory, so the whole training stack above the storage seam —
// pagecache faults, the extractor's ring, the baselines' sync reads —
// inherits verification without code changes. Counters are
// exposed through storage.IntegrityStats (asserted via
// storage.IntegrityStatser, no package dependency needed).
package integrity

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

// castagnoli is the CRC32C table (the polynomial SSD and filesystem
// integrity metadata conventionally use; SSE4.2 accelerates it).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errMismatch is the internal repair-loop signal: the raw re-read still
// does not match the recorded checksum. It drives the retry classifier
// and never escapes the package.
var errMismatch = errors.New("integrity: re-read still mismatches")

// Per-block verification state.
const (
	stateUntracked   uint32 = iota // no checksum recorded: read unverified
	stateTracked                   // checksum recorded: read verified
	stateQuarantined               // persistent mismatch: reads fail
)

// Options tune the wrapper. Checksums cover one block per inner sector,
// and a mismatch is repaired under repairPolicy's constant budget.
type Options struct {
	// Logf receives quarantine warnings; nil discards them.
	Logf func(format string, args ...any)
}

// repairPolicy is the raw re-read budget on a checksum mismatch: the
// errutil schedule (3 attempts, 100µs base backoff), retrying only "still
// mismatching" re-reads; raw I/O errors escalate immediately.
var repairPolicy = errutil.Policy{Retryable: func(err error) bool { return errors.Is(err, errMismatch) }}

// Backend wraps an inner storage.Backend with checksum verification,
// read-repair and quarantine.
type Backend struct {
	inner storage.Backend
	opts  Options
	block int64
	// sums[i] is the CRC32C of block i; state[i] its tracking state.
	// Both are per-block atomics: reads verify lock-free, writers
	// publish sum before state so a concurrent verifier never pairs a
	// fresh state with a stale sum for tracked-from-untracked blocks.
	sums  []atomic.Uint32
	state []atomic.Uint32

	// bufs pools block-verify and repair scratch (*[]byte); recs pools
	// the completion records and waves the child-request slices
	// SubmitBatch hands the inner backend.
	bufs  sync.Pool
	recs  sync.Pool
	waves sync.Pool

	verifiedReads    atomic.Int64
	unverifiedReads  atomic.Int64
	checksumFailures atomic.Int64
	repairs          atomic.Int64
	quarantined      atomic.Int64
}

var (
	_ storage.Backend          = (*Backend)(nil)
	_ storage.BatchSubmitter   = (*Backend)(nil)
	_ storage.IntegrityStatser = (*Backend)(nil)
)

// Wrap layers the integrity defenses over inner, one checksum block per
// inner sector. The checksum table starts empty (every block untracked);
// LoadSidecar adopts a persisted one.
func Wrap(inner storage.Backend, opts Options) (*Backend, error) {
	block := int64(inner.SectorSize())
	if block <= 0 {
		return nil, fmt.Errorf("integrity: block size %d", block)
	}
	n := (inner.Capacity() + block - 1) / block
	return &Backend{
		inner: inner,
		opts:  opts,
		block: block,
		sums:  make([]atomic.Uint32, n),
		state: make([]atomic.Uint32, n),
	}, nil
}

// WrapFactory returns a storage.Factory producing integrity-wrapped
// backends of the inner factory, so dataset loaders and builders compose
// the layer without knowing about it.
func WrapFactory(inner storage.Factory, opts Options) storage.Factory {
	return func(capacity int64) (storage.Backend, error) {
		dev, err := inner(capacity)
		if err != nil {
			return nil, err
		}
		w, err := Wrap(dev, opts)
		if err != nil {
			dev.Close()
			return nil, err
		}
		return w, nil
	}
}

// Inner returns the wrapped backend.
func (b *Backend) Inner() storage.Backend { return b.inner }

func (b *Backend) logf(format string, args ...any) {
	if b.opts.Logf != nil {
		b.opts.Logf(format, args...)
	}
}

// ---- delegation ----

// Capacity returns the inner backend's size.
func (b *Backend) Capacity() int64 { return b.inner.Capacity() }

// SectorSize returns the inner backend's direct-I/O granularity.
func (b *Backend) SectorSize() int { return b.inner.SectorSize() }

// Stats returns the inner backend's counters (the integrity layer's own
// live in IntegrityStats).
func (b *Backend) Stats() storage.Stats { return b.inner.Stats() }

// SetInjector attaches the fault injector to the inner backend: timed
// reads consult it, the raw repair path deliberately does not.
func (b *Backend) SetInjector(in *faults.Injector) { b.inner.SetInjector(in) }

// Injector returns the inner backend's attached injector.
func (b *Backend) Injector() *faults.Injector { return b.inner.Injector() }

// Close closes the inner backend.
func (b *Backend) Close() error { return b.inner.Close() }

// ReadRaw delegates to the inner untimed path without verification: it
// is the trusted repair channel (and the only read path that must stay
// available for a quarantined block, e.g. to salvage it).
func (b *Backend) ReadRaw(p []byte, off int64) error { return b.inner.ReadRaw(p, off) }

// IntegrityStats snapshots the layer's counters.
func (b *Backend) IntegrityStats() storage.IntegrityStats {
	return storage.IntegrityStats{
		VerifiedReads:    b.verifiedReads.Load(),
		UnverifiedReads:  b.unverifiedReads.Load(),
		ChecksumFailures: b.checksumFailures.Load(),
		Repairs:          b.repairs.Load(),
		Quarantined:      b.quarantined.Load(),
	}
}

// ---- write-through checksum maintenance ----

// WriteRaw writes through to the inner backend and refreshes the
// checksums of every block the write touches.
func (b *Backend) WriteRaw(p []byte, off int64) error {
	if err := b.inner.WriteRaw(p, off); err != nil {
		return err
	}
	return b.noteWrite(p, off)
}

// WriteSync writes through the inner timed path and refreshes the
// touched blocks' checksums.
func (b *Backend) WriteSync(p []byte, off int64) (time.Duration, error) {
	d, err := b.inner.WriteSync(p, off)
	if err != nil {
		return d, err
	}
	return d, b.noteWrite(p, off)
}

// noteWrite recomputes the checksum of every block overlapping the
// just-completed write [off, off+len(p)). Fully covered blocks hash the
// caller's bytes; partially covered ones re-read the whole block through
// the raw path (its content now includes the write). Rewriting a
// quarantined block un-quarantines it — fresh bytes are fresh state.
func (b *Backend) noteWrite(p []byte, off int64) error {
	end := off + int64(len(p))
	for i := off / b.block; i*b.block < end; i++ {
		bs := i * b.block
		be := min(bs+b.block, b.inner.Capacity())
		var sum uint32
		if off <= bs && end >= be {
			sum = crc32.Checksum(p[bs-off:be-off], castagnoli)
		} else {
			scratch := b.getBuf(int(be - bs))
			if err := b.inner.ReadRaw(*scratch, bs); err != nil {
				b.putBuf(scratch)
				return fmt.Errorf("integrity: checksum refresh of block %d: %w", i, err)
			}
			sum = crc32.Checksum(*scratch, castagnoli)
			b.putBuf(scratch)
		}
		b.sums[i].Store(sum)
		b.state[i].Store(stateTracked)
	}
	return nil
}

// ---- verification and read-repair ----

// verify checks every block overlapping the completed read [off,
// off+len(p)) against the recorded checksums, repairing mismatches in
// place when the repair budget allows. ctx (nil permitted) bounds the
// repair backoff sleeps; a request with no context is bounded by the
// attempt budget alone.
func (b *Backend) verify(ctx context.Context, p []byte, off int64) error {
	end := off + int64(len(p))
	allTracked := true
	for i := off / b.block; i*b.block < end; i++ {
		switch b.state[i].Load() {
		case stateUntracked:
			allTracked = false
			continue
		case stateQuarantined:
			return fmt.Errorf("integrity: read [%d,%d) touches block %d: %w (%w)",
				off, end, i, storage.ErrQuarantined, storage.ErrChecksum)
		}
		bs := i * b.block
		be := min(bs+b.block, b.inner.Capacity())
		ovs, ove := max(bs, off), min(be, end) // overlap of the block with [off, end)
		var got uint32
		if ovs == bs && ove == be {
			got = crc32.Checksum(p[bs-off:be-off], castagnoli)
		} else {
			// Partial block: the checksum covers the whole block, so hash
			// the raw bytes outside the read spliced with the caller's
			// bytes inside it — it is the caller's bytes under test.
			scratch := b.getBuf(int(be - bs))
			if err := b.inner.ReadRaw(*scratch, bs); err != nil {
				b.putBuf(scratch)
				return fmt.Errorf("integrity: verify block %d: %w", i, err)
			}
			copy((*scratch)[ovs-bs:ove-bs], p[ovs-off:ove-off])
			got = crc32.Checksum(*scratch, castagnoli)
			b.putBuf(scratch)
		}
		if got == b.sums[i].Load() {
			continue
		}
		b.checksumFailures.Add(1)
		if err := b.repairBlock(ctx, p, off, end, i, bs, be); err != nil {
			return err
		}
	}
	if allTracked {
		b.verifiedReads.Add(1)
	} else {
		b.unverifiedReads.Add(1)
	}
	return nil
}

// repairBlock re-reads block i through the untimed raw path until its
// checksum matches again (transient in-flight corruption: the medium is
// fine, the returned bytes were not), then patches the repaired bytes
// into the caller's buffer. A persistent mismatch — the medium itself is
// bad — exhausts the errutil budget, quarantines the block, and
// escalates with both corruption sentinels. A repair cut short by ctx
// fails the read with the context's error and leaves the block tracked.
func (b *Backend) repairBlock(ctx context.Context, p []byte, off, end, i, bs, be int64) error {
	sp := b.getBuf(int(be - bs))
	defer b.putBuf(sp)
	scratch := *sp
	err := errutil.Retry(ctx, repairPolicy, func() error {
		if rerr := b.inner.ReadRaw(scratch, bs); rerr != nil {
			return rerr
		}
		if crc32.Checksum(scratch, castagnoli) != b.sums[i].Load() {
			return errMismatch
		}
		return nil
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Abandoned, not exhausted: a cancelled caller says nothing about
		// the medium, and fencing the block would fail the resumed run
		// that reads it next.
		return fmt.Errorf("integrity: repair of block %d [%d,%d) abandoned: %w", i, bs, be, err)
	}
	if err != nil {
		b.state[i].Store(stateQuarantined)
		b.quarantined.Add(1)
		b.logf("integrity: block %d [%d,%d) quarantined: %v", i, bs, be, err)
		return fmt.Errorf("integrity: block %d [%d,%d) failed verification and repair (%v): %w (%w)",
			i, bs, be, err, storage.ErrChecksum, storage.ErrQuarantined)
	}
	ovs, ove := max(bs, off), min(be, end)
	copy(p[ovs-off:ove-off], scratch[ovs-bs:ove-bs])
	b.repairs.Add(1)
	return nil
}

// ---- read paths ----

// ReadAt performs a verified synchronous buffered read.
func (b *Backend) ReadAt(p []byte, off int64) (time.Duration, error) {
	return b.ReadAtCtx(nil, p, off)
}

// ReadAtCtx is ReadAt bounded by ctx. Like every synchronous read it
// funnels through Submit (storage.SyncRead), so verification applies
// uniformly.
func (b *Backend) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return storage.SyncRead(ctx, b, p, off, false)
}

// ReadDirect is ReadAt with the direct-I/O alignment constraint. The
// constraint is enforced here because the read reaches the inner backend
// through Submit, not through the inner ReadDirect that would check it,
// and storage.SyncRead leaves the check to its caller.
func (b *Backend) ReadDirect(p []byte, off int64) (time.Duration, error) {
	return b.ReadDirectCtx(nil, p, off)
}

// ReadDirectCtx is ReadDirect bounded by ctx.
func (b *Backend) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckAlign(off, len(p), b.inner.SectorSize()); err != nil {
		return 0, err
	}
	return storage.SyncRead(ctx, b, p, off, true)
}

// Submit enqueues an asynchronous read on the inner backend with
// checksum verification + repair attached to its completion, before the
// caller's Done observes the bytes.
func (b *Backend) Submit(req *storage.Request) { b.inner.Submit(b.arm(req)) }

// SubmitBatch arms one completion record per request and hands the whole
// wave to the inner backend through storage.SubmitAll, so a batched inner
// backend (one io_uring_enter on linuring, one lock and clock read on
// file) still sees the caller's wave as one batch.
func (b *Backend) SubmitBatch(reqs []*storage.Request) {
	wp, _ := b.waves.Get().(*[]*storage.Request)
	if wp == nil {
		wp = new([]*storage.Request)
	}
	wave := (*wp)[:0]
	for _, req := range reqs {
		wave = append(wave, b.arm(req))
	}
	storage.SubmitAll(b.inner, wave)
	// A child may already have completed and its record been re-armed by
	// another submitter; the wave only ever held the pointers.
	clear(wave)
	*wp = wave
	b.waves.Put(wp)
}

// readRec is the pooled completion record of one read. It embeds
// the child request the inner backend serves and binds that request's
// Done to itself once, so a steady-state verified read allocates nothing:
// no child Request, no closure.
type readRec struct {
	b      *Backend
	child  storage.Request
	caller *storage.Request
}

// arm readies a record for req and returns its child request, which reads
// into the caller's buffer on the caller's path.
func (b *Backend) arm(req *storage.Request) *storage.Request {
	r, _ := b.recs.Get().(*readRec)
	if r == nil {
		r = &readRec{b: b}
		r.child.Done = r.done
	}
	r.caller = req
	c := &r.child
	c.ResetForReuse()
	c.Buf, c.Off, c.User, c.Direct, c.Ctx = req.Buf, req.Off, req.User, req.Direct, req.Ctx
	return c
}

// done is the child's completion: verify (and repair) the bytes, then
// complete the caller. The record is recycled before the
// caller's Done runs — backends never touch a request after its Done, and
// neither does this.
func (r *readRec) done(c *storage.Request) {
	b, req := r.b, r.caller
	req.Submitted, req.Latency = c.Submitted, c.Latency
	req.Err = c.Err
	if req.Err == nil {
		req.Err = b.verify(c.Ctx, req.Buf, req.Off)
	}
	r.caller, c.Buf, c.Ctx = nil, nil, nil
	b.recs.Put(r)
	if req.Done != nil {
		req.Done(req)
	}
}

// ---- scratch buffer pool ----

// getBuf returns an n-byte sector-aligned scratch buffer for block
// verification and repair. The pool holds *[]byte so a get/put round
// trip boxes nothing.
func (b *Backend) getBuf(n int) *[]byte {
	if p, _ := b.bufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := storage.AlignedBuf(n, b.inner.SectorSize())
	return &s
}

func (b *Backend) putBuf(p *[]byte) {
	*p = (*p)[:cap(*p)]
	b.bufs.Put(p)
}
