// Package linuring is the Linux io_uring entry in the storage-backend
// registry: a storage.Backend over a regular file whose asynchronous
// reads are submitted through a raw io_uring — no cgo, no third-party
// bindings — so one io_uring_enter carries a whole extract read plan
// (storage.BatchSubmitter).
//
// Availability is a runtime property, not a build-time one: the kernel
// may lack io_uring (pre-5.1), forbid it (seccomp, the io_uring_disabled
// sysctl), or the operator may veto it with the EnvDisable environment
// variable. Supported reports the probe; Create fails with an error
// wrapping ErrUnsupported when it is negative; FallbackFactory degrades
// to the storage/file worker pool instead, so `-backend=linuring` is
// safe to request anywhere.
//
// Fallback ladder, mirroring the file backend's direct-I/O story:
//
//	io_uring + O_DIRECT READ    (aligned buffers)
//	io_uring buffered READ      (O_DIRECT refused; DirectDegraded counts)
//	storage/file worker pool    (io_uring unavailable; FallbackFactory)
package linuring

import (
	"errors"
	"os"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
)

// EnvDisable, when set to any non-empty value, makes Supported report
// false and Create fails with ErrUnsupported regardless of kernel
// support — the operator switch for forcing the file-backend rung of
// the fallback ladder (CI exercises it).
const EnvDisable = "GNNDRIVE_LINURING_DISABLE"

// ErrUnsupported is returned (wrapped) by Create when io_uring
// is unavailable: the kernel refuses the setup syscall or EnvDisable is
// set. FallbackFactory treats it as "use storage/file".
var ErrUnsupported = errors.New("linuring: io_uring unavailable")

// Options tune a linuring backend.
type Options struct {
	// Entries is the submission-ring depth — the bound on in-flight
	// reads, like the file backend's worker count times queue slack
	// (default 128; the kernel rounds up to a power of two).
	Entries int
	// DisableDirect skips the O_DIRECT descriptor even where the kernel
	// would grant it (every read buffered; DirectDegraded still counts
	// direct-path requests).
	DisableDirect bool
	// Logf, when non-nil, receives fallback notices from FallbackFactory
	// (one line saying why the file backend was chosen).
	Logf func(format string, args ...any)
}

// RingStats are the io_uring-specific counters a *Backend exposes beyond
// storage.Stats.
type RingStats struct {
	// Enters counts io_uring_enter calls that submitted reads — one per
	// SubmitBatch under normal depth, which is what the batching tests
	// assert.
	Enters int64
	// Batches counts Submit/SubmitBatch admissions that reached the ring.
	Batches int64
	// Entries is the kernel-granted submission-ring depth.
	Entries int
}

// RingStatser is implemented by the io_uring backend (Linux only).
// Cross-platform callers assert this interface instead of the concrete
// *Backend type, which does not exist off Linux.
type RingStatser interface {
	// RingStats returns the io_uring-specific counters.
	RingStats() RingStats
	// DirectActive reports whether an O_DIRECT descriptor was obtained.
	DirectActive() bool
}

// Supported reports whether this process can create io_uring backends:
// the kernel probe succeeds and EnvDisable is not set. The kernel probe
// runs once; the environment veto is consulted on every call so tests
// can flip it per-case.
func Supported() bool {
	if os.Getenv(EnvDisable) != "" {
		return false
	}
	return supported()
}

// FallbackFactory returns a storage.Factory that prefers an io_uring
// backend and degrades to the storage/file worker pool when io_uring is
// unavailable (old kernel, seccomp, EnvDisable) or the ring cannot be
// built. The fallback preserves the direct-I/O choice, and is announced
// once through Options.Logf when set.
func FallbackFactory(path string, opts Options) storage.Factory {
	return func(capacity int64) (storage.Backend, error) {
		be, err := Create(path, capacity, opts)
		if err == nil {
			return be, nil
		}
		if !errors.Is(err, ErrUnsupported) {
			return nil, err
		}
		if opts.Logf != nil {
			opts.Logf("linuring: %v; falling back to file backend", err)
		}
		return file.Create(path, capacity, file.Options{DisableDirect: opts.DisableDirect})
	}
}
