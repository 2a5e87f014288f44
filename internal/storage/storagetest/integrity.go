package storagetest

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
)

// RunIntegrity exercises the integrity layer's cross-backend contract
// over the factory's backends: silent corruption is detected and
// repaired through the raw channel, persistent corruption quarantines
// with both sentinels, a hedged read beats an injected straggler, and a
// wave submitted through the wrapper keeps its batch, its registered
// buffers and every per-request check. Backends only need the base
// Backend contract (Run) for these to hold — the suite wraps each fresh
// backend itself.
func RunIntegrity(t *testing.T, newBackend Factory) {
	t.Run("CorruptionRepaired", func(t *testing.T) { testCorruptionRepaired(t, newBackend) })
	t.Run("PersistentCorruptionQuarantines", func(t *testing.T) { testQuarantine(t, newBackend) })
	t.Run("HedgedReadBeatsStraggler", func(t *testing.T) { testHedgeWins(t, newBackend) })
	t.Run("CapabilitiesForwarded", func(t *testing.T) { testCapabilitiesForwarded(t, newBackend) })
	t.Run("WaveIsOneBatch", func(t *testing.T) { testWaveIsOneBatch(t, newBackend) })
	t.Run("WaveRepairsOnlyCorruptedRequests", func(t *testing.T) { testWaveRepair(t, newBackend) })
	t.Run("WaveFailsOnlyCorruptedRequest", func(t *testing.T) { testWaveChecksumFailure(t, newBackend) })
	t.Run("WaveDegradedKeepsCallerDirect", func(t *testing.T) { testWaveDegradedKeepsDirect(t, newBackend) })
	t.Run("WaveHedgedCompletesEveryRequest", func(t *testing.T) { testWaveHedged(t, newBackend) })
}

// wrap layers an integrity wrapper (with the given options) over a fresh
// backend from the factory.
func wrap(t *testing.T, newBackend Factory, opts integrity.Options) *integrity.Backend {
	t.Helper()
	w, err := integrity.Wrap(newBackend(t), opts)
	if err != nil {
		t.Fatalf("integrity.Wrap: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// testCorruptionRepaired injects silent bit flips on every timed read and
// asserts each one is caught by the block checksums and healed through
// the raw (injection-free) repair channel — the caller always sees the
// written bytes and a clean error.
func testCorruptionRepaired(t *testing.T, newBackend Factory) {
	b := wrap(t, newBackend, integrity.Options{})
	sec := int64(b.SectorSize())
	img := make([]byte, 8*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	inj := faults.NewInjector(faults.Config{Seed: 101, CorruptRate: 1.0})
	b.SetInjector(inj)
	defer b.SetInjector(nil)
	got := make([]byte, sec)
	for i := int64(0); i < 8; i++ {
		if _, err := b.ReadAt(got, i*sec); err != nil {
			t.Fatalf("ReadAt %d under CorruptRate=1: %v", i, err)
		}
		if !bytes.Equal(got, img[i*sec:(i+1)*sec]) {
			t.Fatalf("read %d delivered corrupt bytes", i)
		}
	}
	st := b.IntegrityStats()
	if st.ChecksumFailures == 0 || st.Repairs != st.ChecksumFailures {
		t.Fatalf("corruption not detected+repaired: %+v", st)
	}
	if st.Quarantined != 0 {
		t.Fatalf("transient corruption quarantined a block: %+v", st)
	}
	if inj.Counts().SilentCorrupt == 0 {
		t.Fatalf("injector recorded no silent corruptions")
	}
}

// testQuarantine corrupts the medium behind the wrapper's back so repair
// cannot heal, and asserts the failure carries both sentinels and fences
// the block until it is rewritten.
func testQuarantine(t *testing.T, newBackend Factory) {
	b := wrap(t, newBackend, integrity.Options{})
	sec := int64(b.SectorSize())
	img := make([]byte, 2*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	bad := append([]byte(nil), img[:sec]...)
	bad[3] ^= 0x10
	if err := b.Inner().WriteRaw(bad, 0); err != nil {
		t.Fatalf("inner WriteRaw: %v", err)
	}
	got := make([]byte, sec)
	_, err := b.ReadAt(got, 0)
	if !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("persistent corruption: got %v, want ErrChecksum", err)
	}
	if !errors.Is(err, storage.ErrQuarantined) {
		t.Fatalf("persistent corruption: got %v, want ErrQuarantined", err)
	}
	if st := b.IntegrityStats(); st.Quarantined != 1 {
		t.Fatalf("quarantined %d blocks, want 1: %+v", st.Quarantined, st)
	}
	if _, err := b.ReadAt(got, 0); !errors.Is(err, storage.ErrQuarantined) {
		t.Fatalf("second read: got %v, want ErrQuarantined", err)
	}
	// A rewrite through the wrapper lifts the quarantine.
	if err := b.WriteRaw(img[:sec], 0); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := b.ReadAt(got, 0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(got, img[:sec]) {
		t.Fatalf("rewrite roundtrip mismatch")
	}
}

// testHedgeWins pins a straggler on a read's first attempt and a clean
// second attempt, then asserts the hedge leg completes the read well
// under the straggler's delay.
func testHedgeWins(t *testing.T, newBackend Factory) {
	const delay = 400 * time.Millisecond
	b := wrap(t, newBackend, integrity.Options{HedgeAfter: 2 * time.Millisecond})
	sec := int64(b.SectorSize())
	img := make([]byte, Capacity)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	cfg := faults.Config{Seed: 103, StragglerRate: 0.5, StragglerDelay: delay}
	// Find an offset whose first attempt straggles and second is clean —
	// the deterministic hedge-win setup (same probe logic as the schedule
	// the backend will replay).
	off := int64(-1)
	for cand := int64(0); cand < Capacity; cand += sec {
		probe := faults.NewInjector(cfg)
		first := probe.Decide(cand, int(sec))
		second := probe.Decide(cand, int(sec))
		if first.Delay > 0 && second.Err == nil && second.Delay == 0 && !second.Corrupt {
			off = cand
			break
		}
	}
	if off < 0 {
		t.Fatalf("no straggler-then-clean offset under seed %d", cfg.Seed)
	}
	b.SetInjector(faults.NewInjector(cfg))
	defer b.SetInjector(nil)

	got := make([]byte, sec)
	start := time.Now()
	if _, err := b.ReadAt(got, off); err != nil {
		t.Fatalf("hedged ReadAt: %v", err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, img[off:off+sec]) {
		t.Fatalf("hedged read delivered wrong bytes")
	}
	if elapsed > delay/2 {
		t.Fatalf("hedged read took %v against a %v straggler; hedge leg did not win", elapsed, delay)
	}
	if st := b.IntegrityStats(); st.HedgesIssued == 0 || st.HedgesWon == 0 {
		t.Fatalf("no hedge issued/won: %+v", st)
	}
}

// countingBackend sits under the wrapper and records the shape in which
// reads reach the inner backend: whole waves through SubmitBatch or
// single Submit calls, how many asked for the direct path, and which
// regions were offered for registration.
type countingBackend struct {
	storage.Backend
	batches    atomic.Int64
	batchedOps atomic.Int64
	singles    atomic.Int64
	directOps  atomic.Int64
	registered atomic.Int64
}

func (c *countingBackend) note(req *storage.Request) {
	if req.Direct {
		c.directOps.Add(1)
	}
}

func (c *countingBackend) Submit(req *storage.Request) {
	c.singles.Add(1)
	c.note(req)
	c.Backend.Submit(req)
}

func (c *countingBackend) SubmitBatch(reqs []*storage.Request) {
	c.batches.Add(1)
	c.batchedOps.Add(int64(len(reqs)))
	for _, r := range reqs {
		c.note(r)
	}
	storage.SubmitAll(c.Backend, reqs)
}

func (c *countingBackend) RegisterBuffers(regions ...[]byte) error {
	c.registered.Add(int64(len(regions)))
	return nil
}

// wrapCounting layers wrapper → countingBackend → fresh backend.
func wrapCounting(t *testing.T, newBackend Factory, opts integrity.Options) (*integrity.Backend, *countingBackend) {
	t.Helper()
	c := &countingBackend{Backend: newBackend(t)}
	w, err := integrity.Wrap(c, opts)
	if err != nil {
		t.Fatalf("integrity.Wrap: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, c
}

// wave is n one-sector direct reads of consecutive sectors, each counting
// its own completions.
type wave struct {
	reqs  []*storage.Request
	bufs  [][]byte
	dones []atomic.Int32
	done  chan struct{}
}

func newWave(b storage.Backend, n int) *wave {
	sec := b.SectorSize()
	w := &wave{bufs: make([][]byte, n), dones: make([]atomic.Int32, n),
		done: make(chan struct{}, n)} // sized to the number of sends
	for i := 0; i < n; i++ {
		w.bufs[i] = storage.AlignedBuf(sec, sec)
		req := &storage.Request{Buf: w.bufs[i], Off: int64(i * sec), User: uint64(i), Direct: true}
		req.Done = func(r *storage.Request) {
			w.dones[r.User].Add(1)
			w.done <- struct{}{}
		}
		w.reqs = append(w.reqs, req)
	}
	return w
}

// run submits the wave through submit and waits until every request has
// completed, then checks that none completed twice.
func (w *wave) run(t *testing.T, submit func([]*storage.Request)) {
	t.Helper()
	submit(w.reqs)
	for range w.reqs {
		select {
		case <-w.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("wave did not complete")
		}
	}
	for i := range w.dones {
		if n := w.dones[i].Load(); n != 1 {
			t.Fatalf("request %d completed %d times, want 1", i, n)
		}
	}
}

// writeImage stores a patterned n-sector image at offset 0 through the
// wrapper, so every block is tracked.
func writeImage(t *testing.T, b storage.Backend, n int) []byte {
	t.Helper()
	img := make([]byte, n*b.SectorSize())
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	return img
}

func (w *wave) checkBytes(t *testing.T, img []byte, skip int) {
	t.Helper()
	for i, req := range w.reqs {
		if i == skip {
			continue
		}
		if req.Err != nil {
			t.Fatalf("request %d: %v", i, req.Err)
		}
		if !bytes.Equal(w.bufs[i], img[req.Off:req.Off+int64(len(req.Buf))]) {
			t.Fatalf("request %d returned wrong bytes", i)
		}
	}
}

// testCapabilitiesForwarded: the wrapper offers both optional
// capabilities whatever it wraps; registration reaches an inner
// registrar and is a clean no-op over a backend without one.
func testCapabilitiesForwarded(t *testing.T, newBackend Factory) {
	w, c := wrapCounting(t, newBackend, integrity.Options{})
	var b storage.Backend = w
	if _, ok := b.(storage.BatchSubmitter); !ok {
		t.Fatalf("wrapper hides storage.BatchSubmitter")
	}
	reg, ok := b.(storage.BufferRegistrar)
	if !ok {
		t.Fatalf("wrapper hides storage.BufferRegistrar")
	}
	region := storage.AlignedBuf(4*w.SectorSize(), w.SectorSize())
	if err := reg.RegisterBuffers(region); err != nil {
		t.Fatalf("RegisterBuffers: %v", err)
	}
	if got := c.registered.Load(); got != 1 {
		t.Fatalf("inner registrar saw %d regions, want 1", got)
	}
	// Over the bare backend registration either reaches it (linuring) or
	// is a no-op; a refusal there (RLIMIT_MEMLOCK) is the inner backend's
	// to report, so only the capability-less case must be nil.
	bare := wrap(t, newBackend, integrity.Options{})
	if _, has := bare.Inner().(storage.BufferRegistrar); !has {
		if err := bare.RegisterBuffers(region); err != nil {
			t.Fatalf("RegisterBuffers over a backend without the capability: %v", err)
		}
	}
}

// testWaveIsOneBatch: a wave through the wrapper reaches the inner
// backend as exactly one SubmitBatch of verified reads.
func testWaveIsOneBatch(t *testing.T, newBackend Factory) {
	const n = 32
	b, c := wrapCounting(t, newBackend, integrity.Options{})
	img := writeImage(t, b, n)
	w := newWave(b, n)
	w.run(t, b.SubmitBatch)
	w.checkBytes(t, img, -1)
	if got, ops := c.batches.Load(), c.batchedOps.Load(); got != 1 || ops != n {
		t.Fatalf("inner backend saw %d batches carrying %d reads, want 1 carrying %d", got, ops, n)
	}
	if got := c.singles.Load(); got != 0 {
		t.Fatalf("%d reads bypassed the batch", got)
	}
	if st := b.IntegrityStats(); st.VerifiedReads != n || st.UnverifiedReads != 0 {
		t.Fatalf("wave not fully verified: %+v", st)
	}
}

// testWaveRepair injects silent corruption on a known subset of a wave's
// first attempts: exactly those requests are repaired, every request
// completes clean.
func testWaveRepair(t *testing.T, newBackend Factory) {
	const n = 32
	b, _ := wrapCounting(t, newBackend, integrity.Options{})
	img := writeImage(t, b, n)
	cfg := faults.Config{Seed: 107, CorruptRate: 0.25}
	sec := b.SectorSize()
	probe, want := faults.NewInjector(cfg), int64(0)
	for i := 0; i < n; i++ {
		if probe.Decide(int64(i*sec), sec).Corrupt {
			want++
		}
	}
	if want == 0 || want == n {
		t.Fatalf("seed %d corrupts %d of %d reads; pick one that corrupts some", cfg.Seed, want, n)
	}
	b.SetInjector(faults.NewInjector(cfg))
	defer b.SetInjector(nil)
	w := newWave(b, n)
	w.run(t, b.SubmitBatch)
	w.checkBytes(t, img, -1)
	if st := b.IntegrityStats(); st.ChecksumFailures != want || st.Repairs != want || st.Quarantined != 0 {
		t.Fatalf("want %d failures all repaired, got %+v", want, st)
	}
}

// testWaveChecksumFailure corrupts one block on the medium behind the
// wrapper's back: that request alone fails with ErrChecksum.
func testWaveChecksumFailure(t *testing.T, newBackend Factory) {
	const n, victim = 16, 5
	b, _ := wrapCounting(t, newBackend, integrity.Options{})
	img := writeImage(t, b, n)
	sec := b.SectorSize()
	bad := append([]byte(nil), img[victim*sec:(victim+1)*sec]...)
	bad[7] ^= 0x40
	if err := b.Inner().WriteRaw(bad, int64(victim*sec)); err != nil {
		t.Fatalf("inner WriteRaw: %v", err)
	}
	w := newWave(b, n)
	w.run(t, b.SubmitBatch)
	w.checkBytes(t, img, victim)
	if err := w.reqs[victim].Err; !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("corrupted request: got %v, want ErrChecksum", err)
	}
}

// testWaveDegradedKeepsDirect trips the breaker, then submits a direct
// wave: the inner backend sees buffered children, the callers' requests
// still say Direct.
func testWaveDegradedKeepsDirect(t *testing.T, newBackend Factory) {
	const n = 8
	b, c := wrapCounting(t, newBackend, integrity.Options{Breaker: integrity.BreakerOptions{
		Window: 8, MinSamples: 4, TripRate: 0.5, Cooldown: time.Minute,
	}})
	img := writeImage(t, b, n+1)
	sec := int64(b.SectorSize())
	b.SetInjector(faults.NewInjector(faults.Config{
		Seed: 109, MediaRanges: []faults.Range{{Off: n * sec, Len: sec}},
	}))
	defer b.SetInjector(nil)
	buf := storage.AlignedBuf(int(sec), int(sec))
	for i := 0; i < 4; i++ {
		if _, err := b.ReadDirect(buf, n*sec); !errors.Is(err, faults.ErrMedia) {
			t.Fatalf("read %d in media range: got %v, want ErrMedia", i, err)
		}
	}
	if st := b.IntegrityStats(); st.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", st.BreakerTrips)
	}
	directBefore := c.directOps.Load()
	w := newWave(b, n)
	w.run(t, b.SubmitBatch)
	w.checkBytes(t, img, -1)
	if got := c.directOps.Load() - directBefore; got != 0 {
		t.Fatalf("%d of %d reads reached the inner backend direct under an open breaker", got, n)
	}
	for i, req := range w.reqs {
		if !req.Direct {
			t.Fatalf("request %d: degradation rewrote the caller's Direct flag", i)
		}
	}
	if st := b.IntegrityStats(); st.BreakerDegraded != n {
		t.Fatalf("BreakerDegraded = %d, want %d", st.BreakerDegraded, n)
	}
}

// testWaveHedged: with hedging armed a wave falls back to per-request
// submission and still completes every request exactly once.
func testWaveHedged(t *testing.T, newBackend Factory) {
	const n = 16
	b, c := wrapCounting(t, newBackend, integrity.Options{HedgeAfter: time.Millisecond})
	img := writeImage(t, b, n)
	w := newWave(b, n)
	w.run(t, b.SubmitBatch)
	w.checkBytes(t, img, -1)
	if got := c.batches.Load(); got != 0 {
		t.Fatalf("hedged wave reached the inner backend as %d batches; hedge legs are per-request", got)
	}
	if st := b.IntegrityStats(); st.VerifiedReads != n {
		t.Fatalf("hedged wave not fully verified: %+v", st)
	}
}

// ZeroAllocVerified pins the steady-state cost of the wrapper: a
// verified read, single or in a wave, allocates nothing between Submit
// and Done — no child request, no closure, no boxed scratch. Only valid
// over backends whose own Submit path is allocation-free (sim, file).
func ZeroAllocVerified(t *testing.T, newBackend Factory) {
	if RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 8
	b := wrap(t, newBackend, integrity.Options{})
	writeImage(t, b, n)
	w := newWave(b, n)
	for _, req := range w.reqs {
		req.Done = func(*storage.Request) { w.done <- struct{}{} }
	}
	rearm := func(reqs []*storage.Request) {
		for _, req := range reqs {
			req.ResetForReuse()
		}
	}
	wait := func(k int) {
		for i := 0; i < k; i++ {
			<-w.done
		}
	}
	single := func() {
		rearm(w.reqs[:1])
		b.Submit(w.reqs[0])
		wait(1)
	}
	batch := func() {
		rearm(w.reqs)
		b.SubmitBatch(w.reqs)
		wait(n)
	}
	for i := 0; i < 16; i++ { // warm the record, wave and waiter pools
		single()
		batch()
	}
	if a := testing.AllocsPerRun(200, single); a != 0 {
		t.Errorf("verified Submit→Done allocates %.1f per read, want 0", a)
	}
	if a := testing.AllocsPerRun(200, batch); a != 0 {
		t.Errorf("verified SubmitBatch→Done allocates %.1f per %d-read wave, want 0", a, n)
	}
	for i, req := range w.reqs {
		if req.Err != nil {
			t.Fatalf("request %d: %v", i, req.Err)
		}
	}
	if st := b.IntegrityStats(); st.VerifiedReads == 0 || st.UnverifiedReads != 0 {
		t.Fatalf("reads not verified: %+v", st)
	}
}
