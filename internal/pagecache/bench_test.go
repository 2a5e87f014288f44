package pagecache

import (
	"context"
	"testing"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage/sim"
)

// BenchmarkReadHit measures a fully cached 512 B read.
func BenchmarkReadHit(b *testing.B) {
	dev := sim.New(1<<20, sim.InstantConfig())
	defer dev.Close()
	budget := hostmem.NewBudget(1 << 20)
	c := New(dev, budget)
	f := c.NewFile(0, 1<<20)
	buf := make([]byte, 512)
	if _, err := f.ReadCtx(context.Background(), 0, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := f.ReadCtx(context.Background(), int64(i%1024)*512%(1<<19), buf); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkReadMissEvict measures the miss path under eviction pressure.
func BenchmarkReadMissEvict(b *testing.B) {
	dev := sim.New(64<<20, sim.InstantConfig())
	defer dev.Close()
	budget := hostmem.NewBudget(64 * PageSize)
	c := New(dev, budget)
	f := c.NewFile(0, 64<<20)
	buf := make([]byte, 512)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		off := (int64(i) * 2 * PageSize) % (63 << 20)
		if _, err := f.ReadCtx(context.Background(), off, buf); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkFaultWave measures a 32-page wave at capacity: every page a
// miss, every miss an eviction, the misses one batch at the device.
func BenchmarkFaultWave(b *testing.B) {
	const wavePages = 32
	dev := sim.New(64<<20, sim.InstantConfig())
	defer dev.Close()
	c := New(dev, hostmem.NewBudget(2*wavePages*PageSize))
	f := c.NewFile(0, 64<<20)
	w := c.NewWave()
	ctx := context.Background()
	pages := make([]int64, wavePages)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		base := int64(i%128) * 2 * wavePages
		for j := range pages {
			pages[j] = base + int64(2*j)
		}
		if _, err := w.Pin(ctx, f, pages); err != nil {
			b.Fatal(err)
		}
		w.Unpin()
		i++
	}
}
