package layout_test

import (
	"bytes"
	"math/rand"
	"testing"

	"gnndrive/internal/layout"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
)

// fillRegion writes a deterministic pseudo-random strided feature region
// to dev at base and returns its bytes for later comparison.
func fillRegion(t *testing.T, dev storage.Backend, base int64, featBytes int, numNodes int64, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, numNodes*int64(featBytes))
	rng.Read(src)
	if err := dev.WriteRaw(src, base); err != nil {
		t.Fatal(err)
	}
	return src
}

// randomTrace builds a trace of random mini-batches covering roughly
// half the node range, duplicates included (NewPacked places each node
// at its first touch).
func randomTrace(rng *rand.Rand, numNodes int64) *layout.Trace {
	tr := layout.NewTrace()
	batches := 4 + rng.Intn(8)
	for b := 0; b < batches; b++ {
		batch := make([]int64, 1+rng.Intn(64))
		for i := range batch {
			batch[i] = rng.Int63n(numNodes)
		}
		tr.AddBatch(batch)
	}
	return tr
}

// TestPackRoundTripProperty is the packer's property test: random
// feature geometries (feature sizes deliberately not sector multiples)
// packed by random traces must read back, node by node at NodeOffset,
// exactly the bytes the strided layout held, and the offsets must be a
// permutation of the region's vector slots.
func TestPackRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		featBytes := 1 + rng.Intn(900)        // most trials not sector-aligned
		numNodes := int64(50 + rng.Intn(400)) // small enough to stay fast
		base := 512 * int64(rng.Intn(64))
		dev := sim.New(base+numNodes*int64(featBytes)+4096, sim.InstantConfig())
		src := fillRegion(t, dev, base, featBytes, numNodes, int64(trial))

		p, err := layout.PackInPlace(dev, base, featBytes, numNodes, randomTrace(rng, numNodes), layout.PackOptions{})
		if err != nil {
			t.Fatalf("trial %d (feat=%d nodes=%d): %v", trial, featBytes, numNodes, err)
		}

		taken := make([]bool, numNodes)
		got := make([]byte, featBytes)
		for v := int64(0); v < numNodes; v++ {
			off := p.NodeOffset(v)
			slot := (off - base) / int64(featBytes)
			if off < base || (off-base)%int64(featBytes) != 0 || slot >= numNodes || taken[slot] {
				t.Fatalf("trial %d (feat=%d): node %d at offset %d is not a free vector slot of the region at %d",
					trial, featBytes, v, off, base)
			}
			taken[slot] = true
			if err := dev.ReadRaw(got, off); err != nil {
				t.Fatal(err)
			}
			if want := src[v*int64(featBytes) : (v+1)*int64(featBytes)]; !bytes.Equal(got, want) {
				t.Fatalf("trial %d (feat=%d): node %d packed bytes differ from strided read", trial, featBytes, v)
			}
		}
	}
}

// TestNewPackedRejectsOutOfRangeTrace checks that the trace is
// range-checked where it is placed: a traced ID outside the graph is an
// error, never an index panic.
func TestNewPackedRejectsOutOfRangeTrace(t *testing.T) {
	for _, v := range []int64{-1, 100} {
		tr := layout.NewTrace()
		tr.AddBatch([]int64{3, 3, v})
		if _, err := layout.NewPacked(0, 64, 100, tr); err == nil {
			t.Fatalf("traced node %d of 100 packed without error", v)
		}
	}
}

// TestStridedContiguousRange pins the fast-path contract Marius relies
// on: strided ranges are contiguous, packed ones are not.
func TestStridedContiguousRange(t *testing.T) {
	s := layout.Strided{Base: 1 << 20, Feat: 128, Nodes: 1000}
	off, ok := layout.ContiguousRange(s, 10, 20)
	if !ok || off != 1<<20+10*128 {
		t.Fatalf("strided range: off=%d ok=%v", off, ok)
	}
	if _, ok := layout.ContiguousRange(s, 900, 1001); ok {
		t.Fatal("out-of-range request must not be contiguous")
	}
	p, err := layout.NewPacked(0, 128, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := layout.ContiguousRange(p, 0, 10); ok {
		t.Fatal("packed layout must not claim contiguous node ranges")
	}
}
