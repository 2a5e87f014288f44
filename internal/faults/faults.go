// Package faults provides deterministic storage fault injection for the
// simulated SSD. Disk-based GNN training runs multi-hour epochs over
// billions of small reads; a realistic device occasionally returns a
// transient error, a short read, a latency straggler, or — for a bad
// offset range — an unrecoverable media error. The Injector lets tests
// and experiments introduce exactly those failures with a seeded,
// reproducible schedule so every error branch on the SSD → staging →
// device path is executable instead of dead code.
//
// Determinism: the decision for a read is a pure function of
// (seed, offset, attempt#), where attempt# counts how many times this
// offset has been read so far. A retried read therefore re-rolls its
// fault decision (transient errors clear on retry with high probability)
// while media-range errors persist forever, independent of how requests
// from different offsets interleave.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault classes, distinguishable with errors.Is for retry classification.
var (
	// ErrTransient is a recoverable read error (e.g. a command timeout);
	// retrying the same read is expected to succeed.
	ErrTransient = errors.New("faults: transient read error")
	// ErrMedia is an unrecoverable media error: every read overlapping a
	// configured bad range fails, no matter how often it is retried.
	ErrMedia = errors.New("faults: unrecoverable media error")
	// ErrShortRead marks a read that returned fewer bytes than requested;
	// it is retryable like ErrTransient.
	ErrShortRead = errors.New("faults: short read")
)

// Retryable is the one transient-read classifier: transient errors and
// short reads clear on retry; media errors, closed devices, checksum
// failures and everything else escalate immediately. The extractor's
// per-read retry and the page cache's fault retry both use it.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrShortRead)
}

// Class indexes the per-class injection counters.
type Class int

// The injectable fault classes.
const (
	Transient Class = iota
	Media
	ShortRead
	Straggler
	SilentCorrupt
	numClasses
)

// String names a class.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Media:
		return "media"
	case ShortRead:
		return "short-read"
	case Straggler:
		return "straggler"
	case SilentCorrupt:
		return "silent-corrupt"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Range is a half-open byte range [Off, Off+Len) on the device.
type Range struct {
	Off, Len int64
}

func (r Range) overlaps(off, n int64) bool {
	return off < r.Off+r.Len && off+n > r.Off
}

// Config describes an injection schedule. Rates are probabilities in
// [0, 1] evaluated per read request; they are tested in the order
// transient, short read, straggler, silent-corrupt against one uniform
// draw, so their sum should stay ≤ 1.
type Config struct {
	// Seed makes the schedule reproducible; 0 means 1.
	Seed uint64
	// TransientRate is the per-read probability of ErrTransient.
	TransientRate float64
	// ShortReadRate is the per-read probability of ErrShortRead (the
	// device returns roughly half the requested bytes).
	ShortReadRate float64
	// StragglerRate is the per-read probability of a latency spike.
	StragglerRate float64
	// StragglerDelay is the extra modeled service latency of a straggler
	// (scaled by the device's TimeScale like every modeled duration);
	// 0 means 5ms.
	StragglerDelay time.Duration
	// CorruptRate is the per-read probability of a silent bit flip: the
	// read "succeeds" (no error, full length) but one bit of the returned
	// buffer is inverted. This is the failure mode only the integrity
	// layer's block checksums can catch — retries never see it because
	// the device reports success.
	CorruptRate float64
	// MediaRanges lists permanently bad device ranges: any read
	// overlapping one fails with ErrMedia on every attempt.
	MediaRanges []Range
}

// Decision is the injector's verdict for one read request.
type Decision struct {
	// Err is nil for a clean read; otherwise ErrTransient, ErrMedia, or
	// ErrShortRead (possibly wrapped with request detail).
	Err error
	// Bytes is how many bytes the device should actually fill when Err
	// is ErrShortRead (0 ≤ Bytes < requested).
	Bytes int
	// Delay is extra service latency to add (straggler), before the
	// device's TimeScale is applied.
	Delay time.Duration
	// Corrupt asks the backend to invert one bit of the bytes it returns,
	// without reporting an error. CorruptBit selects which bit, as an
	// index into the filled buffer (backends reduce it modulo the filled
	// length in bits); it is derived deterministically from the same
	// (seed, offset, attempt) hash as the decision itself.
	Corrupt    bool
	CorruptBit uint64
}

// Counts reports how many faults of each class have been injected.
type Counts struct {
	Transient     int64
	Media         int64
	ShortRead     int64
	Straggler     int64
	SilentCorrupt int64
}

// Total sums all classes.
func (c Counts) Total() int64 {
	return c.Transient + c.Media + c.ShortRead + c.Straggler + c.SilentCorrupt
}

// Injector produces deterministic fault decisions. Safe for concurrent
// use by the device's channel goroutines.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	attempt map[int64]uint64 // per-offset read count

	counts [numClasses]atomic.Int64
}

// NewInjector builds an injector for the schedule.
func NewInjector(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.StragglerDelay == 0 {
		cfg.StragglerDelay = 5 * time.Millisecond
	}
	return &Injector{cfg: cfg, attempt: make(map[int64]uint64)}
}

// Decide rolls the fault decision for a read of n bytes at off and
// advances the offset's attempt counter.
func (in *Injector) Decide(off int64, n int) Decision {
	for _, r := range in.cfg.MediaRanges {
		if r.overlaps(off, int64(n)) {
			in.counts[Media].Add(1)
			return Decision{Err: fmt.Errorf("%w: read [%d,%d) overlaps bad range [%d,%d)",
				ErrMedia, off, off+int64(n), r.Off, r.Off+r.Len)}
		}
	}
	in.mu.Lock()
	seq := in.attempt[off]
	in.attempt[off] = seq + 1
	in.mu.Unlock()

	u := uniform(in.cfg.Seed, off, seq)
	switch {
	case u < in.cfg.TransientRate:
		in.counts[Transient].Add(1)
		return Decision{Err: fmt.Errorf("%w: read [%d,%d) attempt %d",
			ErrTransient, off, off+int64(n), seq)}
	case u < in.cfg.TransientRate+in.cfg.ShortReadRate:
		in.counts[ShortRead].Add(1)
		return Decision{
			Err:   fmt.Errorf("%w: %d of %d bytes at %d", ErrShortRead, n/2, n, off),
			Bytes: n / 2,
		}
	case u < in.cfg.TransientRate+in.cfg.ShortReadRate+in.cfg.StragglerRate:
		in.counts[Straggler].Add(1)
		return Decision{Delay: in.cfg.StragglerDelay}
	case u < in.cfg.TransientRate+in.cfg.ShortReadRate+in.cfg.StragglerRate+in.cfg.CorruptRate:
		in.counts[SilentCorrupt].Add(1)
		// A second independent hash picks the flipped bit, so the corrupted
		// position is as reproducible as the decision itself.
		return Decision{Corrupt: true, CorruptBit: bits64(in.cfg.Seed^0xa5a5a5a5a5a5a5a5, off, seq)}
	}
	return Decision{}
}

// Counts snapshots the per-class injection counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Transient:     in.counts[Transient].Load(),
		Media:         in.counts[Media].Load(),
		ShortRead:     in.counts[ShortRead].Load(),
		Straggler:     in.counts[Straggler].Load(),
		SilentCorrupt: in.counts[SilentCorrupt].Load(),
	}
}

// uniform hashes (seed, off, seq) to a float64 in [0, 1) via splitmix64.
func uniform(seed uint64, off int64, seq uint64) float64 {
	return float64(bits64(seed, off, seq)>>11) * (1.0 / (1 << 53))
}

// bits64 hashes (seed, off, seq) to 64 bits via splitmix64.
func bits64(seed uint64, off int64, seq uint64) uint64 {
	z := seed ^ uint64(off)*0x9e3779b97f4a7c15 ^ seq*0xd1342543de82ef95
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// ApplyCorruption flips the decision's chosen bit in the filled prefix of
// a read buffer. Backends call it after filling p from the medium so the
// corruption is indistinguishable from in-flight bit rot: no error, full
// length, one inverted bit. A no-op for clean decisions or empty buffers.
func ApplyCorruption(dec Decision, p []byte) {
	if !dec.Corrupt || len(p) == 0 {
		return
	}
	bit := dec.CorruptBit % uint64(len(p)*8)
	p[bit/8] ^= 1 << (bit % 8)
}
