package file_test

import (
	"errors"
	"path/filepath"
	"testing"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/storagetest"
)

func newBackend(t *testing.T) storage.Backend {
	b, err := file.Create(filepath.Join(t.TempDir(), "data.img"), storagetest.Capacity, file.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return b
}

func newBackendNoDirect(t *testing.T) storage.Backend {
	b, err := file.Create(filepath.Join(t.TempDir(), "data.img"), storagetest.Capacity,
		file.Options{DisableDirect: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return b
}

func TestConformance(t *testing.T) {
	storagetest.Run(t, newBackend)
}

// The buffered-only configuration must satisfy the same contract (this is
// what runs on an O_DIRECT-refusing filesystem hit implicitly; here it
// is forced so every environment exercises it).
func TestConformanceNoDirect(t *testing.T) {
	storagetest.Run(t, newBackendNoDirect)
}

// The integrity wrapper over the file backend must itself satisfy the
// full Backend contract — it is a drop-in layer, not a restricted view.
func TestConformanceIntegrityWrapped(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := integrity.Wrap(newBackend(t), integrity.Options{})
		if err != nil {
			t.Fatalf("integrity.Wrap: %v", err)
		}
		return b
	})
}

// One read of each kind adds the same Stats deltas as on every other
// backend, through either descriptor configuration.
func TestAccounting(t *testing.T) {
	t.Run("direct", func(t *testing.T) { storagetest.Accounting(t, newBackend) })
	t.Run("no-direct", func(t *testing.T) { storagetest.Accounting(t, newBackendNoDirect) })
}

func TestIntegrity(t *testing.T) {
	storagetest.RunIntegrity(t, newBackend)
}

func TestIntegrityNoDirect(t *testing.T) {
	storagetest.RunIntegrity(t, newBackendNoDirect)
}

// The allocation pin of the verified read path, over both descriptor
// configurations: pooled completion records in the wrapper, pooled sync
// waiters and a native SubmitBatch here.
func TestZeroAllocVerifiedSubmit(t *testing.T) {
	t.Run("direct", func(t *testing.T) { storagetest.ZeroAllocVerified(t, newBackend) })
	t.Run("no-direct", func(t *testing.T) { storagetest.ZeroAllocVerified(t, newBackendNoDirect) })
}

// The synchronous reads' allocation pin, over both descriptor
// configurations.
func TestZeroAllocSyncReads(t *testing.T) {
	t.Run("direct", func(t *testing.T) { storagetest.ZeroAllocSync(t, newBackend) })
	t.Run("no-direct", func(t *testing.T) { storagetest.ZeroAllocSync(t, newBackendNoDirect) })
}

func TestCapacityRoundsUpToSector(t *testing.T) {
	b, err := file.Create(filepath.Join(t.TempDir(), "data.img"), 1000, file.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer b.Close()
	// The file is sized to a whole sector; the reported capacity is what
	// the caller asked for.
	if b.Capacity() != 1000 {
		t.Fatalf("capacity %d, want 1000", b.Capacity())
	}
	if _, err := b.ReadAt(make([]byte, 8), 1000); err == nil {
		t.Fatalf("read past requested capacity succeeded")
	}
}

// Direct requests with an unaligned buffer address must degrade to the
// buffered descriptor (counted), never fail.
func TestDirectDegradesOnUnalignedBuffer(t *testing.T) {
	b, err := file.Create(filepath.Join(t.TempDir(), "data.img"), storagetest.Capacity, file.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer b.Close()
	if !b.DirectActive() {
		// No O_DIRECT fd: every direct request degrades; still no error.
		if _, err := b.ReadDirect(make([]byte, 512), 0); err != nil {
			t.Fatalf("ReadDirect without O_DIRECT: %v", err)
		}
		if got := b.Stats().DirectDegraded; got != 1 {
			t.Fatalf("DirectDegraded %d, want 1", got)
		}
		t.Skip("no O_DIRECT descriptor on this filesystem; degraded path verified")
	}
	// Guaranteed-unaligned view into an aligned allocation.
	raw := storage.AlignedBuf(1024+1, 512)
	unaligned := raw[1 : 1+512]
	before := b.Stats().DirectDegraded
	if _, err := b.ReadDirect(unaligned, 0); err != nil {
		t.Fatalf("ReadDirect with unaligned buffer: %v", err)
	}
	if got := b.Stats().DirectDegraded - before; got != 1 {
		t.Fatalf("DirectDegraded advanced by %d, want 1", got)
	}
	// Aligned buffer: served direct, no degradation.
	aligned := storage.AlignedBuf(512, 512)
	before = b.Stats().DirectDegraded
	if _, err := b.ReadDirect(aligned, 0); err != nil {
		t.Fatalf("ReadDirect with aligned buffer: %v", err)
	}
	if got := b.Stats().DirectDegraded - before; got != 0 {
		t.Fatalf("aligned direct read degraded")
	}
}

func TestCreateRejectsNonPositiveCapacity(t *testing.T) {
	if _, err := file.Create(filepath.Join(t.TempDir(), "x.img"), 0, file.Options{}); err == nil {
		t.Fatalf("Create with zero capacity succeeded")
	}
}

func TestFactory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.img")
	b, err := file.Factory(path, file.Options{})(storagetest.Capacity)
	if err != nil {
		t.Fatalf("Factory: %v", err)
	}
	defer b.Close()
	fb, ok := b.(*file.Backend)
	if !ok {
		t.Fatalf("factory returned %T", b)
	}
	if fb.Path() != path {
		t.Fatalf("path %q, want %q", fb.Path(), path)
	}
}

func TestSubmitAfterCloseSentinelIdentity(t *testing.T) {
	b := newBackend(t)
	b.Close()
	done := make(chan error, 1)
	b.Submit(&storage.Request{Buf: make([]byte, 512), Done: func(r *storage.Request) { done <- r.Err }})
	if err := <-done; !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("got %v, want storage.ErrClosed", err)
	}
}
