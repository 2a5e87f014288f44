package gen

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"gnndrive/internal/graph"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// TestOddDimMatchesSerialLoop checks writeFeatures' doc comment directly
// at dims 1 and 33, whose rows end in the odd value tensor.NormalRow hands
// to BoxMuller itself (TestGoldenImage's dims are even): the feature
// bytes are those of a serial loop drawing rng.NormFloat32 once per
// value, and the splits are what that loop leaves rng to draw.
func TestOddDimMatchesSerialLoop(t *testing.T) {
	for _, dim := range []int{1, 33} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			spec := Tiny()
			spec.Dim = dim
			ds, err := BuildWith(spec, sim.Factory(sim.InstantConfig()))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()

			rng := tensor.NewRNG(spec.Seed)
			classes := make([]int32, spec.Nodes)
			for i := range classes {
				classes[i] = int32(rng.Intn(spec.Classes))
			}
			buildTopology(spec, rng, classes)
			if !slices.Equal(ds.Labels, classes) {
				t.Fatal("labels differ from the serial build's")
			}
			centroids := make([][]float32, spec.Classes)
			for c := range centroids {
				centroids[c] = Centroid(spec, c)
			}
			want := make([]byte, 4*spec.Nodes*dim)
			for v, c := range classes {
				for j, cj := range centroids[c] {
					f := cj + rng.NormFloat32()
					binary.LittleEndian.PutUint32(want[4*(v*dim+j):], math.Float32bits(f))
				}
			}
			got := make([]byte, len(want))
			if err := ds.Dev.ReadRaw(got, ds.Layout.FeaturesOff); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(want); i += 4 {
				if g, w := got[i:i+4], want[i:i+4]; !slices.Equal(g, w) {
					t.Fatalf("node %d value %d: built %x, serial loop %x", i/4/dim, i/4%dim, g, w)
				}
			}

			serial := &graph.Dataset{NumNodes: ds.NumNodes}
			splitNodes(serial, spec, rng)
			if !slices.Equal(ds.TrainIdx, serial.TrainIdx) || !slices.Equal(ds.ValIdx, serial.ValIdx) {
				t.Fatal("splits differ from what the serial loop leaves rng to draw")
			}
		})
	}
}
