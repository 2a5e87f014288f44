package uring

import (
	"context"
	"testing"

	"gnndrive/internal/storage/sim"
)

// BenchmarkQueueFlushWait measures the ring round-trip on an instant
// device (pure ring overhead, no modeled latency).
func BenchmarkQueueFlushWait(b *testing.B) {
	dev := sim.New(1<<20, sim.InstantConfig())
	defer dev.Close()
	r := NewRing(dev, 64)
	buf := make([]byte, 512)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := r.QueueReadCtx(context.Background(), buf, int64(i%1024)*512, uint64(i)); err != nil {
			b.Fatal(err)
		}
		r.Flush()
		r.WaitCQE()
		i++
	}
}

// BenchmarkDeepPipeline keeps 64 requests in flight continuously.
func BenchmarkDeepPipeline(b *testing.B) {
	dev := sim.New(1<<20, sim.InstantConfig())
	defer dev.Close()
	r := NewRing(dev, 64)
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	submitted, collected := 0, 0
	for collected < b.N {
		if submitted < b.N && r.Inflight() < 64 {
			if err := r.QueueReadCtx(context.Background(), bufs[submitted%64], int64(submitted%1024)*512, uint64(submitted)); err != nil {
				b.Fatal(err)
			}
			r.Flush()
			submitted++
			continue
		}
		r.WaitCQE()
		collected++
	}
}
