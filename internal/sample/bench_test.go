package sample_test

import (
	"testing"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// BenchmarkSampleBatch measures 3-hop sampling of a 50-target batch on
// the tiny graph through the untimed reader (pure sampler cost).
func BenchmarkSampleBatch(b *testing.B) {
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Dev.Close()
	s := sample.New(graph.NewRawReader(ds), []int{3, 3, 3}, tensor.NewRNG(1))
	targets := make([]int64, 50)
	for i := range targets {
		targets[i] = int64(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SampleBatch(i, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleBatchInto is the same workload through the recycling
// path the engine uses: one batch reused across all iterations.
func BenchmarkSampleBatchInto(b *testing.B) {
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Dev.Close()
	s := sample.New(graph.NewRawReader(ds), []int{3, 3, 3}, tensor.NewRNG(1))
	targets := make([]int64, 50)
	for i := range targets {
		targets[i] = int64(i * 7)
	}
	bt := &sample.Batch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleBatchInto(bt, i, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleBatchIntoPrefetch is the same workload through a cached
// reader under a page cache a tenth of the topology, so the sampler's
// windowed prefetch faults most of every window in as a batch.
func BenchmarkSampleBatchIntoPrefetch(b *testing.B) {
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Dev.Close()
	cache := pagecache.New(ds.Dev, hostmem.NewBudget(ds.Layout.IndicesLen/10))
	reader := graph.NewCachedReader(ds, cache, graph.IndicesFile(ds, cache))
	s := sample.New(reader, []int{3, 3, 3}, tensor.NewRNG(1))
	targets := make([]int64, 50)
	for i := range targets {
		targets[i] = int64(i * 7)
	}
	bt := &sample.Batch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleBatchInto(bt, i, targets); err != nil {
			b.Fatal(err)
		}
	}
}
