// Package storagetest is the conformance suite for storage.Backend
// implementations. The three backends (storage/sim, storage/file,
// storage/linuring) run the same harness, so the contract the training
// stack depends on — one alignment sentinel, prompt ctx cancellation,
// ErrClosed instead of a panic after Close, monotone stats, injector
// wiring, one meaning of each Stats counter — is enforced by construction
// rather than convention. A new backend gets its whole acceptance test by
// calling Run and Accounting.
package storagetest

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

// Capacity is the device size the harness asks each factory for.
const Capacity int64 = 1 << 20

// Factory builds a fresh backend of at least Capacity bytes for one
// subtest. The harness closes it via Cleanup; factories should register
// any extra teardown (e.g. file removal) themselves.
type Factory func(t *testing.T) storage.Backend

// Run exercises the full Backend contract against the factory.
func Run(t *testing.T, newBackend Factory) {
	t.Run("RawRoundtrip", func(t *testing.T) { testRawRoundtrip(t, newBackend) })
	t.Run("ReadPathsAgree", func(t *testing.T) { testReadPathsAgree(t, newBackend) })
	t.Run("AlignmentSentinel", func(t *testing.T) { testAlignment(t, newBackend) })
	t.Run("Bounds", func(t *testing.T) { testBounds(t, newBackend) })
	t.Run("AsyncSubmit", func(t *testing.T) { testAsyncSubmit(t, newBackend) })
	t.Run("BatchSubmit", func(t *testing.T) { testBatchSubmit(t, newBackend) })
	t.Run("CtxCancelMidRead", func(t *testing.T) { testCtxCancel(t, newBackend) })
	t.Run("SubmitAfterClose", func(t *testing.T) { testSubmitAfterClose(t, newBackend) })
	t.Run("CloseRacesBatchSubmit", func(t *testing.T) { testCloseRacesBatchSubmit(t, newBackend) })
	t.Run("StatsMonotone", func(t *testing.T) { testStatsMonotone(t, newBackend) })
	t.Run("InjectorWiring", func(t *testing.T) { testInjectorWiring(t, newBackend) })
}

func open(t *testing.T, newBackend Factory) storage.Backend {
	t.Helper()
	b := newBackend(t)
	if b.Capacity() < Capacity {
		t.Fatalf("capacity %d < requested %d", b.Capacity(), Capacity)
	}
	if b.SectorSize() <= 0 {
		t.Fatalf("sector size %d", b.SectorSize())
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

func testRawRoundtrip(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	want := make([]byte, 3*sec)
	pattern(want, 2*sec)
	if err := b.WriteRaw(want, 2*sec); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	got := make([]byte, len(want))
	if err := b.ReadRaw(got, 2*sec); err != nil {
		t.Fatalf("ReadRaw: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("raw roundtrip mismatch")
	}
	if _, err := b.WriteSync(want, 8*sec); err != nil {
		t.Fatalf("WriteSync: %v", err)
	}
	if err := b.ReadRaw(got, 8*sec); err != nil {
		t.Fatalf("ReadRaw after WriteSync: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WriteSync roundtrip mismatch")
	}
}

func testReadPathsAgree(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	want := make([]byte, 4*sec)
	pattern(want, 0)
	if err := b.WriteRaw(want, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	for _, tc := range []struct {
		name string
		read func(p []byte, off int64) (time.Duration, error)
	}{
		{"ReadAt", b.ReadAt},
		{"ReadDirect", b.ReadDirect},
		{"ReadAtCtx", func(p []byte, off int64) (time.Duration, error) {
			return b.ReadAtCtx(context.Background(), p, off)
		}},
		{"ReadDirectCtx", func(p []byte, off int64) (time.Duration, error) {
			return b.ReadDirectCtx(context.Background(), p, off)
		}},
	} {
		got := make([]byte, 2*sec)
		if _, err := tc.read(got, sec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want[sec:3*sec]) {
			t.Fatalf("%s returned wrong bytes", tc.name)
		}
	}
}

func testAlignment(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	buf := make([]byte, sec)
	if _, err := b.ReadDirect(buf, sec/2); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned offset: got %v, want ErrUnaligned", err)
	}
	if _, err := b.ReadDirect(buf[:sec-1], 0); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned length: got %v, want ErrUnaligned", err)
	}
	if _, err := b.ReadDirectCtx(context.Background(), buf, sec/2); !errors.Is(err, storage.ErrUnaligned) {
		t.Fatalf("unaligned ctx offset: got %v, want ErrUnaligned", err)
	}
	// Buffered reads have no alignment constraint.
	if _, err := b.ReadAt(buf[:3], 1); err != nil {
		t.Fatalf("unaligned buffered read: %v", err)
	}
}

func testBounds(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	buf := make([]byte, b.SectorSize())
	if _, err := b.ReadAt(buf, b.Capacity()); err == nil {
		t.Fatalf("read past capacity succeeded")
	}
	done := make(chan *storage.Request, 1)
	b.Submit(&storage.Request{Buf: buf, Off: b.Capacity(),
		Done: func(r *storage.Request) { done <- r }})
	if r := <-done; r.Err == nil {
		t.Fatalf("async read past capacity succeeded")
	}
}

func testAsyncSubmit(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	const n = 64
	img := make([]byte, n*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	bufs := make([][]byte, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, sec)
		req := &storage.Request{Buf: bufs[i], Off: int64(i) * sec, User: uint64(i), Direct: i%2 == 0}
		req.Done = func(r *storage.Request) {
			errs[r.User] = r.Err
			wg.Done()
		}
		b.Submit(req)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bufs[i], img[int64(i)*sec:int64(i+1)*sec]) {
			t.Fatalf("request %d returned wrong bytes", i)
		}
	}
}

// testBatchSubmit drives the SubmitAll seam: backends implementing
// storage.BatchSubmitter take the whole plan in one call (linuring: one
// io_uring_enter), the rest degrade to per-request Submit — either way
// every request must complete individually through its Done callback,
// and a doomed request in the middle of a batch must not sink its
// neighbours.
func testBatchSubmit(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	const n = 32
	img := make([]byte, n*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n+1)
	reqs := make([]*storage.Request, 0, n+1)
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = storage.AlignedBuf(int(sec), b.SectorSize())
		req := &storage.Request{Buf: bufs[i], Off: int64(i) * sec, User: uint64(i), Direct: i%2 == 0}
		req.Done = func(r *storage.Request) {
			errs[r.User] = r.Err
			wg.Done()
		}
		reqs = append(reqs, req)
	}
	// One out-of-bounds request rides in the middle of the batch.
	doomed := &storage.Request{Buf: make([]byte, sec), Off: b.Capacity(), User: n}
	doomed.Done = func(r *storage.Request) {
		errs[r.User] = r.Err
		wg.Done()
	}
	reqs = append(reqs[:n/2], append([]*storage.Request{doomed}, reqs[n/2:]...)...)
	wg.Add(n + 1)
	storage.SubmitAll(b, reqs)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("batch request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bufs[i], img[int64(i)*sec:int64(i+1)*sec]) {
			t.Fatalf("batch request %d returned wrong bytes", i)
		}
	}
	if errs[n] == nil {
		t.Fatalf("out-of-bounds batch request succeeded")
	}
}

func testCtxCancel(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	// Every read stalls far longer than the test budget; only prompt
	// cancellation lets this finish.
	b.SetInjector(faults.NewInjector(faults.Config{
		Seed: 7, StragglerRate: 1.0, StragglerDelay: 30 * time.Second,
	}))
	defer b.SetInjector(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	buf := make([]byte, b.SectorSize())
	start := time.Now()
	_, err := b.ReadAtCtx(ctx, buf, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: got %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; straggler delay not interrupted", elapsed)
	}
}

func testSubmitAfterClose(t *testing.T, newBackend Factory) {
	b := newBackend(t)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	done := make(chan *storage.Request, 1)
	b.Submit(&storage.Request{Buf: make([]byte, b.SectorSize()), Off: 0,
		Done: func(r *storage.Request) { done <- r }})
	select {
	case r := <-done:
		if !errors.Is(r.Err, storage.ErrClosed) {
			t.Fatalf("submit after close: got %v, want ErrClosed", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("submit after close never completed")
	}
}

// testCloseRacesBatchSubmit races Close against batches mid-flight on
// the SubmitAll seam (SubmitBatch on batched backends, per-request
// Submit elsewhere). The contract under the race: every submitted
// request completes exactly once, with either clean bytes or ErrClosed —
// never a panic, a lost completion, or a double Done. A daemon draining
// while extract plans are in flight leans on exactly this.
func testCloseRacesBatchSubmit(t *testing.T, newBackend Factory) {
	b := newBackend(t)
	t.Cleanup(func() { b.Close() }) // Close is idempotent
	sec := int64(b.SectorSize())
	const nBlocks = 64
	img := make([]byte, nBlocks*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}

	const batch = 8
	var (
		firstBad  errMu
		submitted atomic.Int64
		completed atomic.Int64
		inflight  sync.WaitGroup
		closing   = make(chan struct{})
		drained   = make(chan struct{})
	)
	go func() {
		defer close(drained)
		for i := 0; ; i++ {
			select {
			case <-closing:
				return
			default:
			}
			reqs := make([]*storage.Request, batch)
			counts := make([]atomic.Int32, batch)
			for j := range reqs {
				j := j
				blk := int64((i*batch + j) % nBlocks)
				buf := storage.AlignedBuf(int(sec), b.SectorSize())
				inflight.Add(1)
				submitted.Add(1)
				reqs[j] = &storage.Request{
					Buf: buf, Off: blk * sec, Direct: j%2 == 0,
					Done: func(r *storage.Request) {
						if n := counts[j].Add(1); n != 1 {
							firstBad.set(errors.New("request completed more than once"))
						}
						switch {
						case r.Err == nil:
							if !bytes.Equal(buf, img[blk*sec:(blk+1)*sec]) {
								firstBad.set(errors.New("successful read returned wrong bytes"))
							}
						case errors.Is(r.Err, storage.ErrClosed):
							// racing Close: acceptable outcome
						default:
							firstBad.set(r.Err)
						}
						completed.Add(1)
						inflight.Done()
					},
				}
			}
			storage.SubmitAll(b, reqs)
		}
	}()

	// Let a few batches get genuinely in flight, then slam the door.
	time.Sleep(2 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatalf("Close during batches: %v", err)
	}
	close(closing)
	<-drained

	allDone := make(chan struct{})
	go func() { inflight.Wait(); close(allDone) }()
	select {
	case <-allDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("lost completions: %d submitted, %d completed", submitted.Load(), completed.Load())
	}
	if err := firstBad.get(); err != nil {
		t.Fatalf("racing request misbehaved: %v", err)
	}
	if submitted.Load() != completed.Load() {
		t.Fatalf("%d submitted but %d completed", submitted.Load(), completed.Load())
	}

	// A whole batch submitted strictly after Close must complete — each
	// request individually — with ErrClosed.
	var wg sync.WaitGroup
	late := make([]*storage.Request, batch)
	lateErrs := make([]error, batch)
	for j := range late {
		j := j
		wg.Add(1)
		late[j] = &storage.Request{
			Buf: storage.AlignedBuf(int(sec), b.SectorSize()), Off: int64(j) * sec,
			Done: func(r *storage.Request) {
				lateErrs[j] = r.Err
				wg.Done()
			},
		}
	}
	storage.SubmitAll(b, late)
	wg.Wait()
	for j, err := range lateErrs {
		if !errors.Is(err, storage.ErrClosed) {
			t.Fatalf("post-close batch request %d: got %v, want ErrClosed", j, err)
		}
	}
}

// errMu records the first unexpected error seen by racing completion
// callbacks (storagetest avoids importing errutil to stay leaf-level).
type errMu struct {
	mu  sync.Mutex
	err error
}

func (e *errMu) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errMu) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func testStatsMonotone(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	before := b.Stats()
	buf := make([]byte, sec)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := b.ReadAt(buf, int64(i)*sec); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}
	after := b.Stats()
	if got := after.Reads - before.Reads; got != n {
		t.Fatalf("Reads advanced by %d, want %d", got, n)
	}
	if got := after.BytesRead - before.BytesRead; got != n*sec {
		t.Fatalf("BytesRead advanced by %d, want %d", got, n*sec)
	}
	if after.BusyTime < before.BusyTime || after.QueueTime < before.QueueTime ||
		after.TotalLatency < before.TotalLatency {
		t.Fatalf("time counters regressed: before %+v after %+v", before, after)
	}
	if after.Faults != before.Faults {
		t.Fatalf("faults advanced without an injector: %d -> %d", before.Faults, after.Faults)
	}
}

func testInjectorWiring(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	img := make([]byte, 8*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}

	if b.Injector() != nil {
		t.Fatalf("fresh backend has an injector")
	}
	inj := faults.NewInjector(faults.Config{
		Seed:        3,
		MediaRanges: []faults.Range{{Off: 4 * sec, Len: sec}},
	})
	b.SetInjector(inj)
	if b.Injector() != inj {
		t.Fatalf("Injector() did not return the attached injector")
	}

	buf := make([]byte, sec)
	faultsBefore := b.Stats().Faults
	if _, err := b.ReadAt(buf, 4*sec); !errors.Is(err, faults.ErrMedia) {
		t.Fatalf("read in media range: got %v, want ErrMedia", err)
	}
	if got := b.Stats().Faults - faultsBefore; got != 1 {
		t.Fatalf("Stats.Faults advanced by %d, want 1", got)
	}
	if inj.Counts().Media != 1 {
		t.Fatalf("injector media count %d, want 1", inj.Counts().Media)
	}

	// Short reads deliver the prefix and the shared sentinel.
	b.SetInjector(faults.NewInjector(faults.Config{Seed: 5, ShortReadRate: 1.0}))
	for i := range buf {
		buf[i] = 0xAA
	}
	if _, err := b.ReadAt(buf, 0); !errors.Is(err, faults.ErrShortRead) {
		t.Fatalf("short read: got %v, want ErrShortRead", err)
	}
	if !bytes.Equal(buf[:sec/2], img[:sec/2]) {
		t.Fatalf("short read did not deliver the prefix")
	}

	// Detach: reads are clean again.
	b.SetInjector(nil)
	if b.Injector() != nil {
		t.Fatalf("Injector() non-nil after detach")
	}
	if _, err := b.ReadAt(buf, 4*sec); err != nil {
		t.Fatalf("read after detach: %v", err)
	}
	if !bytes.Equal(buf, img[4*sec:5*sec]) {
		t.Fatalf("read after detach returned wrong bytes")
	}
}

// Accounting pins what one read of each kind adds to Stats, with its
// fault injected at rate 1, through both the buffered and the direct
// path. The deltas are the same constants on every backend: Reads,
// BytesRead and Faults mean one thing whichever mechanism served the
// read. Not part of Run, because the integrity wrapper heals the
// corruption case on purpose.
func Accounting(t *testing.T, newBackend Factory) {
	b := open(t, newBackend)
	sec := int64(b.SectorSize())
	img := make([]byte, 2*sec)
	pattern(img, 0)
	if err := b.WriteRaw(img, 0); err != nil {
		t.Fatalf("WriteRaw: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		inj     *faults.Config // nil: no injector
		ctx     context.Context
		wantErr error
		want    storage.Stats // Reads, BytesRead and Faults only
	}{
		{"clean", nil, nil, nil,
			storage.Stats{Reads: 1, BytesRead: sec}},
		{"short", &faults.Config{Seed: 5, ShortReadRate: 1}, nil, faults.ErrShortRead,
			storage.Stats{Reads: 1, BytesRead: sec / 2, Faults: 1}},
		{"corrupt", &faults.Config{Seed: 21, CorruptRate: 1}, nil, nil,
			storage.Stats{Reads: 1, BytesRead: sec, Faults: 1}},
		{"media", &faults.Config{MediaRanges: []faults.Range{{Off: 0, Len: sec}}}, nil, faults.ErrMedia,
			storage.Stats{Reads: 1, Faults: 1}},
		{"abandoned", &faults.Config{Seed: 7, StragglerRate: 1, StragglerDelay: time.Hour}, cancelled, context.Canceled,
			storage.Stats{Reads: 1}},
	} {
		for _, direct := range []bool{false, true} {
			b.SetInjector(nil)
			if tc.inj != nil {
				b.SetInjector(faults.NewInjector(*tc.inj))
			}
			buf := storage.AlignedBuf(int(sec), b.SectorSize())
			before := b.Stats()
			var err error
			if direct {
				_, err = b.ReadDirectCtx(tc.ctx, buf, 0)
			} else {
				_, err = b.ReadAtCtx(tc.ctx, buf, 0)
			}
			d := b.Stats()
			got := storage.Stats{Reads: d.Reads - before.Reads,
				BytesRead: d.BytesRead - before.BytesRead, Faults: d.Faults - before.Faults}
			if (tc.wantErr == nil) != (err == nil) || (err != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("%s (direct %v): err %v, want %v", tc.name, direct, err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("%s (direct %v): Stats delta %+v, want %+v", tc.name, direct, got, tc.want)
			}
			if tc.name == "corrupt" && bytes.Equal(buf, img[:sec]) {
				t.Fatalf("corrupt (direct %v): read returned clean bytes", direct)
			}
		}
	}
	b.SetInjector(nil)
}

// ZeroAllocSync pins the cost of storage.SyncReads: a steady-state
// ReadAtCtx or ReadDirectCtx allocates nothing, its waiter coming back
// from the backend's own pool. Only valid over backends whose Submit path
// is allocation-free, as ZeroAllocVerified.
func ZeroAllocSync(t *testing.T, newBackend Factory) {
	if RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	b := open(t, newBackend)
	sec := b.SectorSize()
	if err := b.WriteRaw(make([]byte, 2*sec), 0); err != nil { // tracked by the integrity wrapper
		t.Fatalf("WriteRaw: %v", err)
	}
	buf := storage.AlignedBuf(sec, sec)
	for name, read := range map[string]func(context.Context, []byte, int64) (time.Duration, error){
		"ReadAtCtx": b.ReadAtCtx, "ReadDirectCtx": b.ReadDirectCtx,
	} {
		once := func() {
			if _, err := read(context.Background(), buf, int64(sec)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		once() // warm the waiter pool
		if a := testing.AllocsPerRun(200, once); a != 0 {
			t.Errorf("%s allocates %.1f per read, want 0", name, a)
		}
	}
}
