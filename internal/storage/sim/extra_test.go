package sim

import (
	"bytes"
	"testing"
	"time"
)

func TestReadRawUntimed(t *testing.T) {
	d := testDevice(t, 4096, Config{ReadLatency: 50 * time.Millisecond, Channels: 1, SectorSize: 512, TimeScale: 1})
	d.WriteAt([]byte{1, 2, 3}, 100)
	start := time.Now()
	buf := make([]byte, 3)
	d.ReadRaw(buf, 100)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("ReadRaw must not pay modeled latency")
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("got %v", buf)
	}
	if d.Stats().Reads != 0 {
		t.Fatal("ReadRaw must not count as device read")
	}
}

func TestReadRawOutOfRangePanics(t *testing.T) {
	d := testDevice(t, 100, InstantConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.ReadRaw(make([]byte, 10), 95)
}

func TestWriteSyncStoresAndTimes(t *testing.T) {
	d := testDevice(t, 4096, Config{ReadLatency: 3 * time.Millisecond, Channels: 1, SectorSize: 512, TimeScale: 1})
	waited, err := d.WriteSync([]byte{9, 8, 7}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if waited < 3*time.Millisecond {
		t.Fatalf("write waited %v, want >= 3ms", waited)
	}
	got := make([]byte, 3)
	d.ReadRaw(got, 512)
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestWriteSyncOutOfRange(t *testing.T) {
	d := testDevice(t, 100, InstantConfig())
	if _, err := d.WriteSync(make([]byte, 10), 95); err == nil {
		t.Fatal("expected range error")
	}
}

// Sequential large reads should approach the modeled bandwidth rather
// than being latency-bound.
func TestBandwidthBoundLargeReads(t *testing.T) {
	cfg := Config{ReadLatency: time.Microsecond, BytesPerSec: 100e6, Channels: 1, SectorSize: 512, TimeScale: 1}
	d := testDevice(t, 8<<20, cfg)
	start := time.Now()
	buf := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if _, err := d.ReadAt(buf, int64(i)<<20); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 8 MiB at 100 MB/s ~ 84ms.
	if elapsed < 60*time.Millisecond {
		t.Fatalf("8MiB read finished in %v; bandwidth model not applied", elapsed)
	}
}
