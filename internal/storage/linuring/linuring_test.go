package linuring_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/storagetest"
)

// ringBackend is the full surface of the io_uring backend, asserted via
// interfaces so this test file compiles off Linux (where the concrete
// *linuring.Backend type does not exist and every test skips).
type ringBackend interface {
	storage.Backend
	storage.BatchSubmitter
	linuring.RingStatser
}

// requireSupported skips — with the probe's reason on record — where the
// kernel refuses io_uring, so the suite is green on locked-down CI
// runners while still failing loudly on any contract breach where the
// ring is real.
func requireSupported(t *testing.T) {
	t.Helper()
	if !linuring.Supported() {
		t.Skipf("io_uring unavailable on this system (old kernel, seccomp, "+
			"io_uring_disabled sysctl, or %s set); skipping linuring suite", linuring.EnvDisable)
	}
}

func newBackend(t *testing.T) storage.Backend {
	t.Helper()
	b, err := linuring.Create(filepath.Join(t.TempDir(), "data.img"),
		storagetest.Capacity, linuring.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return b
}

func newBackendNoDirect(t *testing.T) storage.Backend {
	t.Helper()
	b, err := linuring.Create(filepath.Join(t.TempDir(), "data.img"),
		storagetest.Capacity, linuring.Options{DisableDirect: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return b
}

func TestConformance(t *testing.T) {
	requireSupported(t)
	storagetest.Run(t, newBackend)
}

// The buffered-only configuration must satisfy the same contract (the
// implicit shape on an O_DIRECT-refusing filesystem, forced here so
// every environment exercises it).
func TestConformanceNoDirect(t *testing.T) {
	requireSupported(t)
	storagetest.Run(t, newBackendNoDirect)
}

// One read of each kind adds the same Stats deltas as on sim and file,
// whether the ring reads it, the slow path serves its fault, or it is
// abandoned before it reaches the ring.
func TestAccounting(t *testing.T) {
	requireSupported(t)
	t.Run("direct", func(t *testing.T) { storagetest.Accounting(t, newBackend) })
	t.Run("no-direct", func(t *testing.T) { storagetest.Accounting(t, newBackendNoDirect) })
}

// The integrity wrapper composes over the ring backend exactly as over
// file/sim: checksums, read-repair and quarantine all ride on the
// Backend seam.
func TestConformanceIntegrityWrapped(t *testing.T) {
	requireSupported(t)
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := integrity.Wrap(newBackend(t), integrity.Options{})
		if err != nil {
			t.Fatalf("integrity.Wrap: %v", err)
		}
		return b
	})
}

func TestIntegrity(t *testing.T) {
	requireSupported(t)
	storagetest.RunIntegrity(t, newBackend)
}

// A verified read on the ring allocates nothing between Submit/SubmitBatch
// and Done: no slot-id scratch per wave, no closure (the same pin as over
// sim and file).
func TestZeroAllocVerifiedSubmit(t *testing.T) {
	requireSupported(t)
	storagetest.ZeroAllocVerified(t, newBackend)
}

// One SubmitBatch must cost one io_uring_enter: the whole read plan is
// staged as SQEs and published with a single syscall. This is the
// mechanism behind the extractor's one-enter-per-plan contract.
func TestBatchOneEnter(t *testing.T) {
	requireSupported(t)
	b := newBackend(t)
	defer b.Close()
	lb := b.(ringBackend)
	sec := b.SectorSize()
	const n = 24
	img := make([]byte, n*sec)
	for i := range img {
		img[i] = byte(i * 7)
	}
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	var wg sync.WaitGroup
	reqs := make([]*storage.Request, n)
	bufs := make([][]byte, n)
	for i := range reqs {
		bufs[i] = storage.AlignedBuf(sec, sec)
		reqs[i] = &storage.Request{Buf: bufs[i], Off: int64(i * sec), User: uint64(i), Direct: true}
		reqs[i].Done = func(r *storage.Request) {
			if r.Err != nil {
				t.Errorf("request %d: %v", r.User, r.Err)
			}
			wg.Done()
		}
	}
	wg.Add(n)
	before := lb.RingStats()
	lb.SubmitBatch(reqs)
	wg.Wait()
	after := lb.RingStats()
	if got := after.Enters - before.Enters; got != 1 {
		t.Fatalf("batch of %d cost %d io_uring_enter calls, want 1", n, got)
	}
	if got := after.Batches - before.Batches; got != 1 {
		t.Fatalf("Batches advanced by %d, want 1", got)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], img[i*sec:(i+1)*sec]) {
			t.Fatalf("batch request %d returned wrong bytes", i)
		}
	}
}

// A batch wider than the submission ring still completes everything; it
// just splits into as many enters as SQ capacity requires.
func TestBatchWiderThanRing(t *testing.T) {
	requireSupported(t)
	b, err := linuring.Create(filepath.Join(t.TempDir(), "data.img"),
		storagetest.Capacity, linuring.Options{Entries: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer b.Close()
	sec := b.SectorSize()
	const n = 64
	var wg sync.WaitGroup
	reqs := make([]*storage.Request, n)
	for i := range reqs {
		reqs[i] = &storage.Request{Buf: make([]byte, sec), Off: int64(i * sec)}
		reqs[i].Done = func(r *storage.Request) {
			if r.Err != nil {
				t.Errorf("request at %d: %v", r.Off, r.Err)
			}
			wg.Done()
		}
	}
	wg.Add(n)
	storage.SubmitAll(b, reqs)
	wg.Wait()
}

// EnvDisable forces the unsupported path: Create fails with
// ErrUnsupported and FallbackFactory lands on the file backend — the
// bottom rung of the ladder, exercised everywhere regardless of kernel.
func TestEnvDisableFallsBackToFile(t *testing.T) {
	t.Setenv(linuring.EnvDisable, "1")
	if linuring.Supported() {
		t.Fatalf("Supported() true with %s set", linuring.EnvDisable)
	}
	path := filepath.Join(t.TempDir(), "data.img")
	if _, err := linuring.Create(path, storagetest.Capacity, linuring.Options{}); !errors.Is(err, linuring.ErrUnsupported) {
		t.Fatalf("Create: got %v, want ErrUnsupported", err)
	}
	var notice string
	fb, err := linuring.FallbackFactory(path, linuring.Options{
		Logf: func(format string, args ...any) { notice = format },
	})(storagetest.Capacity)
	if err != nil {
		t.Fatalf("FallbackFactory: %v", err)
	}
	defer fb.Close()
	if _, ok := fb.(*file.Backend); !ok {
		t.Fatalf("fallback produced %T, want *file.Backend", fb)
	}
	if notice == "" {
		t.Fatalf("fallback was silent; want a Logf notice")
	}
}

// The fallback backend must satisfy the whole contract too: run the
// conformance suite against FallbackFactory with the ring vetoed, so the
// ladder's bottom rung gets the same acceptance bar on every platform.
func TestConformanceForcedFallback(t *testing.T) {
	t.Setenv(linuring.EnvDisable, "1")
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := linuring.FallbackFactory(filepath.Join(t.TempDir(), "data.img"),
			linuring.Options{})(storagetest.Capacity)
		if err != nil {
			t.Fatalf("FallbackFactory: %v", err)
		}
		return b
	})
}

// A direct request served buffered — because O_DIRECT is disabled — is
// counted exactly once per request even though the slow and ring paths
// may both stamp it (shared once-per-Request degradation contract).
func TestDirectDegradedCountedOnce(t *testing.T) {
	requireSupported(t)
	b, err := linuring.Create(filepath.Join(t.TempDir(), "data.img"),
		storagetest.Capacity, linuring.Options{DisableDirect: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer b.Close()
	sec := b.SectorSize()
	buf := storage.AlignedBuf(sec, sec)
	if _, err := b.ReadDirect(buf, 0); err != nil {
		t.Fatalf("ReadDirect: %v", err)
	}
	if got := b.Stats().DirectDegraded; got != 1 {
		t.Fatalf("DirectDegraded %d, want 1", got)
	}
}
