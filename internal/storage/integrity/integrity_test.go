package integrity_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

const capacity int64 = 1 << 20

// newWrapped builds an integrity wrapper over an instant simulator.
func newWrapped(t *testing.T, opts integrity.Options) *integrity.Backend {
	t.Helper()
	b, err := integrity.Wrap(sim.New(capacity, sim.InstantConfig()), opts)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// pattern fills p with a deterministic byte sequence derived from off.
func pattern(p []byte, off int64) {
	for i := range p {
		p[i] = byte((off + int64(i)) * 31)
	}
}

func TestVerifiedRoundtrip(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	want := make([]byte, 4*sec)
	pattern(want, 0)
	if err := b.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("roundtrip mismatch")
	}
	// A read over never-written blocks is served but unverified.
	if _, err := b.ReadAt(got[:sec], 64*sec); err != nil {
		t.Fatalf("ReadAt untracked: %v", err)
	}
	st := b.IntegrityStats()
	if st.VerifiedReads == 0 || st.UnverifiedReads == 0 {
		t.Fatalf("want both verified and unverified reads, got %+v", st)
	}
	if st.ChecksumFailures != 0 || st.Repairs != 0 || st.Quarantined != 0 {
		t.Fatalf("clean roundtrip advanced failure counters: %+v", st)
	}
}

func TestTransientCorruptionRepaired(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	want := make([]byte, 16*sec)
	pattern(want, 0)
	if err := b.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	// Every timed read returns one flipped bit; the raw repair channel
	// bypasses the injector, so every mismatch heals.
	inj := faults.NewInjector(faults.Config{Seed: 11, CorruptRate: 1.0})
	b.SetInjector(inj)
	got := make([]byte, sec)
	for i := int64(0); i < 16; i++ {
		if _, err := b.ReadAt(got, i*sec); err != nil {
			t.Fatalf("ReadAt %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i*sec:(i+1)*sec]) {
			t.Fatalf("read %d returned corrupt bytes after repair", i)
		}
	}
	st := b.IntegrityStats()
	if st.ChecksumFailures == 0 {
		t.Fatalf("no checksum failures detected under CorruptRate=1: %+v", st)
	}
	if st.Repairs != st.ChecksumFailures {
		t.Fatalf("repairs %d != failures %d", st.Repairs, st.ChecksumFailures)
	}
	if st.Quarantined != 0 {
		t.Fatalf("transient corruption quarantined a block: %+v", st)
	}
	if c := inj.Counts(); c.SilentCorrupt == 0 {
		t.Fatalf("injector recorded no silent corruptions: %+v", c)
	}
}

func TestPersistentCorruptionQuarantined(t *testing.T) {
	var warnings []string
	var mu sync.Mutex
	b := newWrapped(t, integrity.Options{Logf: func(f string, a ...any) {
		mu.Lock()
		warnings = append(warnings, f)
		mu.Unlock()
	}})
	sec := int64(b.SectorSize())
	want := make([]byte, 2*sec)
	pattern(want, 0)
	if err := b.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	// Corrupt the medium itself, behind the wrapper's back: the raw
	// re-read sees the same bad bytes, so repair cannot heal it.
	bad := append([]byte(nil), want[:sec]...)
	bad[5] ^= 0x40
	if err := b.Inner().WriteRaw(bad, 0); err != nil {
		t.Fatalf("inner WriteRaw: %v", err)
	}
	got := make([]byte, sec)
	_, err := b.ReadAt(got, 0)
	if !errors.Is(err, storage.ErrChecksum) || !errors.Is(err, storage.ErrQuarantined) {
		t.Fatalf("persistent corruption: got %v, want ErrChecksum and ErrQuarantined", err)
	}
	st := b.IntegrityStats()
	if st.Quarantined != 1 || st.Repairs != 0 {
		t.Fatalf("want 1 quarantined, 0 repairs: %+v", st)
	}
	// Later reads fail fast on the quarantined block, without re-hashing.
	if _, err := b.ReadAt(got, 0); !errors.Is(err, storage.ErrQuarantined) {
		t.Fatalf("second read: got %v, want ErrQuarantined", err)
	}
	if got := b.IntegrityStats().ChecksumFailures; got != st.ChecksumFailures {
		t.Fatalf("quarantined read re-hashed: failures %d -> %d", st.ChecksumFailures, got)
	}
	// The raw salvage channel stays open.
	if err := b.ReadRaw(got, 0); err != nil {
		t.Fatalf("ReadRaw on quarantined block: %v", err)
	}
	// Rewriting through the wrapper un-quarantines: fresh bytes, fresh state.
	if err := b.WriteRaw(want[:sec], 0); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(got, want[:sec]) {
		t.Fatalf("rewrite roundtrip mismatch")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) == 0 {
		t.Fatalf("quarantine emitted no warning")
	}
}

func TestPartialBlockVerification(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	want := make([]byte, 4*sec)
	pattern(want, 0)
	if err := b.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	b.SetInjector(faults.NewInjector(faults.Config{Seed: 17, CorruptRate: 1.0}))
	// An unaligned read spanning a block boundary: both partially covered
	// blocks are verified by splicing the caller's bytes over the raw
	// block content, so the flipped bit is still caught and repaired.
	got := make([]byte, sec)
	off := sec / 2
	if _, err := b.ReadAt(got, off); err != nil {
		t.Fatalf("partial-block ReadAt: %v", err)
	}
	if !bytes.Equal(got, want[off:off+sec]) {
		t.Fatalf("partial-block read returned corrupt bytes after repair")
	}
	if st := b.IntegrityStats(); st.ChecksumFailures == 0 || st.Repairs != st.ChecksumFailures {
		t.Fatalf("partial-block corruption not repaired: %+v", st)
	}
}

func TestPartialBlockWriteRefresh(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	base := make([]byte, 2*sec)
	pattern(base, 0)
	if err := b.WriteRaw(base, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	// Overwrite the middle half-sector: both touched blocks re-checksum
	// from the raw image (read-modify on the partial coverage).
	patch := make([]byte, sec)
	pattern(patch, 7777)
	if err := b.WriteRaw(patch, sec/2); err != nil {
		t.Fatalf("partial WriteRaw: %v", err)
	}
	got := make([]byte, 2*sec)
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after partial write: %v", err)
	}
	want := append([]byte(nil), base...)
	copy(want[sec/2:], patch)
	if !bytes.Equal(got, want) {
		t.Fatalf("partial write roundtrip mismatch")
	}
	if st := b.IntegrityStats(); st.ChecksumFailures != 0 {
		t.Fatalf("partial write left stale checksums: %+v", st)
	}
}

func TestAsyncSubmitVerifiesAndRepairs(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	img := make([]byte, 8*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	b.SetInjector(faults.NewInjector(faults.Config{Seed: 43, CorruptRate: 1.0}))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	bufs := make([][]byte, 8)
	wg.Add(8)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		bufs[i] = make([]byte, sec)
		req := &storage.Request{Buf: bufs[i], Off: int64(i) * sec, User: uint64(i),
			Ctx: ctx, Direct: i%2 == 0}
		req.Done = func(r *storage.Request) {
			errs[r.User] = r.Err
			wg.Done()
		}
		b.Submit(req)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bufs[i], img[int64(i)*sec:int64(i+1)*sec]) {
			t.Fatalf("request %d delivered corrupt bytes", i)
		}
	}
	if st := b.IntegrityStats(); st.Repairs == 0 {
		t.Fatalf("async submits repaired nothing under CorruptRate=1: %+v", st)
	}
}

// A read whose context is already cancelled when its corrupt bytes arrive
// abandons the repair; that says nothing about the medium, so the block
// must stay readable for the next (resumed) run instead of being fenced.
func TestCancelledRepairDoesNotQuarantine(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	img := make([]byte, sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	b.SetInjector(faults.NewInjector(faults.Config{Seed: 47, CorruptRate: 1.0}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, sec)
	if _, err := b.ReadAtCtx(ctx, buf, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled corrupt read: got %v, want context.Canceled", err)
	}
	if st := b.IntegrityStats(); st.Quarantined != 0 {
		t.Fatalf("abandoned repair quarantined a healthy block: %+v", st)
	}
	b.SetInjector(nil)
	if _, err := b.ReadAtCtx(context.Background(), buf, 0); err != nil {
		t.Fatalf("read after the abandoned repair: %v", err)
	}
	if !bytes.Equal(buf, img) {
		t.Fatalf("read after the abandoned repair returned wrong bytes")
	}
}

// A table Checksums took in one process, adopted by a wrapper over the
// same bytes in another, verifies from the first read, and catches
// corruption that reached the new medium before the wrapper did.
func TestAdoptChecksumsVerifies(t *testing.T) {
	img := make([]byte, capacity)
	pattern(img, 0)

	b1 := newWrapped(t, integrity.Options{})
	sec := int64(b1.SectorSize())
	if err := b1.WriteRaw(img[:16*sec], 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	table := b1.Checksums()

	// A new process: the same bytes land on a fresh device outside any
	// wrapper, then the wrapper adopts the table.
	inner := sim.New(capacity, sim.InstantConfig())
	if err := inner.WriteRaw(img[:16*sec], 0); err != nil {
		t.Fatalf("inner WriteRaw: %v", err)
	}
	bad := append([]byte(nil), img[3*sec:4*sec]...)
	bad[9] ^= 0x01
	if err := inner.WriteRaw(bad, 3*sec); err != nil {
		t.Fatalf("inner corrupt WriteRaw: %v", err)
	}
	b2, err := integrity.Wrap(inner, integrity.Options{})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	defer b2.Close()
	got := make([]byte, sec)
	if _, err := b2.ReadAt(got, 0); err != nil {
		t.Fatalf("read before adoption: %v", err)
	}
	if st := b2.IntegrityStats(); st.UnverifiedReads != 1 {
		t.Fatalf("a read before adoption should be unverified: %+v", st)
	}
	if err := b2.AdoptChecksums(table); err != nil {
		t.Fatalf("AdoptChecksums: %v", err)
	}
	if _, err := b2.ReadAt(got, 0); err != nil {
		t.Fatalf("adopted read: %v", err)
	}
	if st := b2.IntegrityStats(); st.VerifiedReads != 1 {
		t.Fatalf("adopted read not verified: %+v", st)
	}
	if _, err := b2.ReadAt(got, 3*sec); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("pre-existing corruption: got %v, want ErrChecksum", err)
	}
}

func TestAdoptChecksumsGeometry(t *testing.T) {
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	data := make([]byte, sec)
	pattern(data, 0)
	if _, err := b.WriteSync(data, 0); err != nil {
		t.Fatalf("WriteSync: %v", err)
	}
	table := b.Checksums()
	// Different block size (a device with larger sectors): the table must
	// be rejected, not adopted.
	bigSectors := sim.InstantConfig()
	bigSectors.SectorSize = 2 * b.SectorSize()
	other, err := integrity.Wrap(sim.New(capacity, bigSectors), integrity.Options{})
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	defer other.Close()
	if err := other.AdoptChecksums(table); err == nil {
		t.Fatalf("block-size-mismatched table adopted")
	}
	// A different capacity is not a mismatch: a block's index maps to the
	// same byte offset regardless of the scratch tail, so the overlapping
	// range adopts and verifies (builders and loaders size scratch
	// differently around the same data image).
	smallInner := sim.New(capacity/2, sim.InstantConfig())
	if err := smallInner.WriteRaw(data, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	small, err := integrity.Wrap(smallInner, integrity.Options{})
	if err != nil {
		t.Fatalf("Wrap small: %v", err)
	}
	defer small.Close()
	if err := small.AdoptChecksums(table); err != nil {
		t.Fatalf("AdoptChecksums small: %v", err)
	}
	got := make([]byte, sec)
	if _, err := small.ReadAt(got, 0); err != nil {
		t.Fatalf("adopted read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("adopted read returned wrong bytes")
	}
	if st := small.IntegrityStats(); st.VerifiedReads != 1 || st.UnverifiedReads != 0 {
		t.Fatalf("adopted table did not verify the read: %+v", st)
	}
	if n := len(small.Checksums().Sums); n != len(table.Sums)/2 {
		t.Fatalf("half-capacity wrapper keeps %d blocks, want %d", n, len(table.Sums)/2)
	}
}

func TestWrapFactoryComposes(t *testing.T) {
	f := integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{})
	dev, err := f(capacity)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	defer dev.Close()
	if _, ok := dev.(storage.IntegrityStatser); !ok {
		t.Fatalf("factory product does not expose IntegrityStats")
	}
	sec := int64(dev.SectorSize())
	want := make([]byte, sec)
	pattern(want, 0)
	if err := dev.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	got := make([]byte, sec)
	if _, err := dev.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("roundtrip mismatch")
	}
}

// The wrapper's own cost: over the simulator (whose Submit path
// allocates nothing) a verified read allocates nothing either.
func TestZeroAllocVerifiedSubmit(t *testing.T) {
	storagetest.ZeroAllocVerified(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.InstantConfig())
	})
}

// A synchronous read is bound to the wrapper's Submit, so it is verified,
// and it allocates nothing either.
func TestZeroAllocSyncReads(t *testing.T) {
	storagetest.ZeroAllocSync(t, func(t *testing.T) storage.Backend {
		return newWrapped(t, integrity.Options{})
	})
}

// A partial-block verify goes through the scratch pool; pooling *[]byte
// keeps that path free of the interface-boxing allocation too.
func TestZeroAllocPartialBlockVerify(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	b := newWrapped(t, integrity.Options{})
	sec := int64(b.SectorSize())
	img := make([]byte, 4*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	buf := make([]byte, sec/2)
	read := func() {
		if _, err := b.ReadAtCtx(context.Background(), buf, sec+sec/4); err != nil {
			t.Fatalf("partial-block read: %v", err)
		}
	}
	for i := 0; i < 16; i++ {
		read()
	}
	if a := testing.AllocsPerRun(200, read); a != 0 {
		t.Fatalf("partial-block verified read allocates %.1f, want 0", a)
	}
	if !bytes.Equal(buf, img[sec+sec/4:sec+sec/4+sec/2]) {
		t.Fatalf("partial-block read returned wrong bytes")
	}
}
