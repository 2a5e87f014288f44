package sim

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gnndrive/internal/storage"
)

func testDevice(t *testing.T, capacity int64, cfg Config) *Device {
	t.Helper()
	d := New(capacity, cfg)
	t.Cleanup(func() { d.Close() })
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := testDevice(t, 1<<16, InstantConfig())
	want := []byte("hello, flash translation layer")
	d.WriteAt(want, 1024)
	got := make([]byte, len(want))
	if _, err := d.ReadAt(got, 1024); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestReadOutOfRange(t *testing.T) {
	d := testDevice(t, 4096, InstantConfig())
	if _, err := d.ReadAt(make([]byte, 10), 4090); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := d.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("expected range error for negative offset")
	}
}

func TestWriteOutOfRangePanics(t *testing.T) {
	d := testDevice(t, 100, InstantConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.WriteAt(make([]byte, 10), 95)
}

func TestDirectAlignment(t *testing.T) {
	d := testDevice(t, 1<<16, InstantConfig())
	if _, err := d.ReadDirect(make([]byte, 512), 512); err != nil {
		t.Fatalf("aligned direct read failed: %v", err)
	}
	if _, err := d.ReadDirect(make([]byte, 512), 100); err == nil {
		t.Fatal("misaligned offset must fail")
	}
	if _, err := d.ReadDirect(make([]byte, 100), 512); err == nil {
		t.Fatal("misaligned length must fail")
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := testDevice(t, 1<<16, InstantConfig())
	for i := 0; i < 5; i++ {
		if _, err := d.ReadAt(make([]byte, 512), int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Reads != 5 || s.BytesRead != 5*512 {
		t.Fatalf("stats %+v", s)
	}
}

func TestAsyncSubmitCompletes(t *testing.T) {
	d := testDevice(t, 1<<16, InstantConfig())
	d.WriteAt([]byte{7, 8, 9, 10}, 2048)
	var wg sync.WaitGroup
	results := make([][]byte, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		buf := make([]byte, 4)
		results[i] = buf
		d.Submit(&storage.Request{Buf: buf, Off: 2048, Done: func(*storage.Request) { wg.Done() }})
	}
	wg.Wait()
	for i, r := range results {
		if !bytes.Equal(r, []byte{7, 8, 9, 10}) {
			t.Fatalf("async read %d got %v", i, r)
		}
	}
}

func TestSubmitErrorDeliveredViaDone(t *testing.T) {
	d := testDevice(t, 1024, InstantConfig())
	done := make(chan error, 1)
	d.Submit(&storage.Request{Buf: make([]byte, 10), Off: 1020, Done: func(r *storage.Request) { done <- r.Err }})
	if err := <-done; err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestLatencyModelServiceTime(t *testing.T) {
	cfg := Config{ReadLatency: 2 * time.Millisecond, BytesPerSec: 0, Channels: 1, SectorSize: 512, TimeScale: 1}
	d := testDevice(t, 4096, cfg)
	start := time.Now()
	if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 2*time.Millisecond {
		t.Fatalf("read finished in %v, want >= 2ms", e)
	}
}

func TestChannelParallelismSpeedsReads(t *testing.T) {
	// 8 requests, 2ms each: on 1 channel ~16ms serialized, on 8 channels
	// ~2ms. Assert the parallel device is at least 2x faster.
	run := func(channels int) time.Duration {
		cfg := Config{ReadLatency: 2 * time.Millisecond, Channels: channels, SectorSize: 512, TimeScale: 1}
		d := New(64*1024, cfg)
		defer d.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 8; i++ {
			wg.Add(1)
			d.Submit(&storage.Request{Buf: make([]byte, 512), Off: int64(i) * 512, Done: func(*storage.Request) { wg.Done() }})
		}
		wg.Wait()
		return time.Since(start)
	}
	serial := run(1)
	parallel := run(8)
	if parallel*2 > serial {
		t.Fatalf("8-channel %v not meaningfully faster than 1-channel %v", parallel, serial)
	}
}

func TestQueueTimeGrowsWithDepth(t *testing.T) {
	cfg := Config{ReadLatency: time.Millisecond, Channels: 1, SectorSize: 512, TimeScale: 1}
	d := testDevice(t, 64*1024, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		d.Submit(&storage.Request{Buf: make([]byte, 512), Off: 0, Done: func(*storage.Request) { wg.Done() }})
	}
	wg.Wait()
	s := d.Stats()
	// With one channel, request k waits ~k*1ms: total queueing should be
	// well above a single service time.
	if s.QueueTime < 3*time.Millisecond {
		t.Fatalf("queue time %v too small for serialized requests", s.QueueTime)
	}
}

// Property: any in-range read returns exactly the bytes last written.
func TestReadWhatYouWrote(t *testing.T) {
	d := testDevice(t, 1<<16, InstantConfig())
	img := make([]byte, 1<<16)
	for i := range img {
		img[i] = byte(i * 31)
	}
	d.WriteAt(img, 0)
	f := func(off uint16, ln uint8) bool {
		o, n := int64(off), int(ln)
		if o+int64(n) > 1<<16 {
			n = int(1<<16 - o)
		}
		buf := make([]byte, n)
		if _, err := d.ReadAt(buf, o); err != nil {
			return false
		}
		return bytes.Equal(buf, img[o:o+int64(n)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := New(1024, InstantConfig())
	d.Close()
	d.Close()
}

// A read due within the pacing slack on an idle channel completes on the
// submitter: Done has run when Submit returns.
func TestSubmitDueReadCompletesBeforeReturn(t *testing.T) {
	for _, cfg := range []Config{InstantConfig(), DefaultConfig()} {
		d := testDevice(t, 1<<16, cfg)
		ran := false
		d.Submit(&storage.Request{Buf: make([]byte, 512), Off: 512, Done: func(r *storage.Request) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			ran = true
		}})
		if !ran {
			t.Fatalf("%+v: a due read had not completed when Submit returned", cfg)
		}
	}
}

// Close waits for a read its channel's timer has yet to deliver.
func TestCloseWaitsForDeferredRead(t *testing.T) {
	d := New(1<<16, Config{ReadLatency: 5 * time.Millisecond, Channels: 2, SectorSize: 512, TimeScale: 1})
	var done atomic.Bool
	d.Submit(&storage.Request{Buf: make([]byte, 512), Done: func(*storage.Request) { done.Store(true) }})
	if done.Load() {
		t.Fatal("a read beyond the pacing slack completed on the submitter")
	}
	d.Close()
	if !done.Load() {
		t.Fatal("Close returned before the deferred read completed")
	}
}

// The channels are servers on one clock, not goroutines: a device
// starts none and Close joins none.
func TestNewAndCloseStartNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	d := New(1<<16, DefaultConfig())
	if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines with the device open, %d before", n, before)
	}
	d.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}
