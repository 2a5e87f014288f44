package gen

import (
	"testing"

	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// BenchmarkBuild times the Papers build on an instant simulated device:
// "all" is Build (topology, feature synthesis and the writes), "features"
// is writeFeatures alone over the same classes and RNG position.
func BenchmarkBuild(b *testing.B) {
	spec := Papers()
	dev := sim.New(spec.SizeBytes()+4096, sim.InstantConfig())
	defer dev.Close()
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(spec, dev, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("features", func(b *testing.B) {
		rng := tensor.NewRNG(spec.Seed)
		classes := make([]int32, spec.Nodes)
		for i := range classes {
			classes[i] = int32(rng.Intn(spec.Classes))
		}
		buildTopology(spec, rng, classes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := *rng
			if err := writeFeatures(dev, 0, spec, classes, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
