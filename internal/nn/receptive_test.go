package nn

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/storagetest"
	"gnndrive/internal/tensor"
)

// recordedGradHashes are FNV-1a hashes of the bits of every Param.G after
// one Loss on each of gradBatches' batches, recorded before each conv was
// cut to the rows the next one reads.
var recordedGradHashes = map[ModelKind]uint64{
	GraphSAGE: 0x4d3c983bd7e07069,
	GCN:       0xa80d785090f41ec9,
	GAT:       0x8d6defafe8763d01,
}

// gradBatches is how many randomBatch batches the gradient recording runs.
const gradBatches = 12

// gradHash runs one Loss of a fresh three-layer kind model on each of
// gradBatches random batches, with 1..3 targets, and hashes the bits of
// every gradient. It also reports how many batches left the input conv
// fewer rows than the batch has nodes.
func gradHash(kind ModelKind) (hash uint64, trimmed int) {
	h := fnv.New64a()
	var buf [4]byte
	for seed := uint64(0); seed < gradBatches; seed++ {
		rng := tensor.NewRNG(seed)
		b := randomBatch(rng)
		b.NumTargets = min(1+int(seed%3), len(b.Nodes))
		m := NewModel(Config{Kind: kind, InDim: 5, Hidden: 6, Classes: 3, Layers: 3}, rng)
		x := tensor.New(len(b.Nodes), 5)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat32()
		}
		labels := make([]int32, b.NumTargets)
		for i := range labels {
			labels[i] = int32(rng.Intn(3))
		}
		m.Loss(b, x, labels)
		if m.rows[0] < len(b.Nodes) {
			trimmed++
		}
		for _, p := range m.Params() {
			for _, g := range p.G.Data {
				u := math.Float32bits(g)
				buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64(), trimmed
}

// TestRecordedGradients pins every gradient bit on batches whose layers
// are not in hop order, so the rows a conv keeps are not the nodes within
// some hop count and a wrong trim cannot hide behind the sampler's order.
func TestRecordedGradients(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		got, trimmed := gradHash(kind)
		if want := recordedGradHashes[kind]; got != want {
			t.Errorf("%v: gradient hash %#016x, recorded %#016x", kind, got, want)
		}
		if trimmed == 0 {
			t.Errorf("%v: no batch trimmed the input conv; the recording pins nothing", kind)
		}
	}
}

// hopCounts returns, for k = 0..maxK, how many nodes lie within k hops of
// b's targets, by breadth-first search from the targets over every
// layer's edges, each followed from its dst to its src.
func hopCounts(b *sample.Batch, maxK int) []int {
	srcsOf := make([][]int32, len(b.Nodes))
	for _, l := range b.Layers {
		for i, d := range l.Dst {
			srcsOf[d] = append(srcsOf[d], l.Src[i])
		}
	}
	seen := make([]bool, len(b.Nodes))
	var frontier []int32
	for v := 0; v < b.NumTargets; v++ {
		seen[v] = true
		frontier = append(frontier, int32(v))
	}
	counts := []int{b.NumTargets}
	for k := 1; k <= maxK; k++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range srcsOf[v] {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
		counts = append(counts, counts[k-1]+len(next))
	}
	return counts
}

// TestReceptiveRowsMatchHops checks the row rule on sampled batches: conv
// l of an L-layer model computes the nodes within L-1-l hops of the
// targets and reads those within L-l.
func TestReceptiveRowsMatchHops(t *testing.T) {
	ds := tinyDataset(t)
	for _, tc := range []struct {
		name    string
		fanouts []int
		layers  int
	}{
		{"engine shape", []int{3, 3, 3}, 3},
		{"GAT engine shape", []int{3, 3, 2}, 3},
		{"one hop, two layers", []int{4}, 2},
		{"more layers than hops", []int{3, 3}, 3},
	} {
		sampler := sample.New(graph.NewRawReader(ds), tc.fanouts, tensor.NewRNG(5))
		m := NewModel(Config{Kind: GraphSAGE, InDim: ds.Dim, Hidden: 8, Classes: ds.NumClasses, Layers: tc.layers}, tensor.NewRNG(6))
		for id := 0; id < 6; id++ {
			b, _, err := sampler.SampleBatch(id, ds.TrainIdx[id*50:(id+1)*50])
			if err != nil {
				t.Fatal(err)
			}
			m.receptiveField(b)
			counts := hopCounts(b, tc.layers)
			for l := 0; l <= tc.layers; l++ {
				want := counts[tc.layers-l]
				if got := m.rows[l]; got != want || got > len(b.Nodes) {
					t.Fatalf("%s, batch %d: conv %d reads %d rows, want %d within %d hops (batch has %d nodes)",
						tc.name, id, l, got, want, tc.layers-l, len(b.Nodes))
				}
			}
			if tc.layers > len(tc.fanouts) && m.rows[1] != len(b.Nodes) {
				t.Fatalf("%s, batch %d: the input conv computes %d of %d rows, want all",
					tc.name, id, m.rows[1], len(b.Nodes))
			}
		}
	}
}

// TestZeroAllocModelStep pins a steady-state train step's allocations at
// the engine's shape: forward, backward, the loss and the Adam step
// allocate nothing. A collection runs before every measured step, as in
// tensor's TestMatMulIntoZeroAlloc, so scratch that a GC may drop counts.
func TestZeroAllocModelStep(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ds := tinyDataset(t)
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		sampler := sample.New(graph.NewRawReader(ds), engineFanouts(kind), tensor.NewRNG(7))
		b, x, labels := tinyBatch(t, ds, sampler, 0, ds.TrainIdx[:50], nil)
		m := NewModel(Config{Kind: kind, InDim: ds.Dim, Hidden: 64, Classes: ds.NumClasses, Layers: 3}, tensor.NewRNG(8))
		opt := NewAdam(0.01)
		m.Loss(b, x, labels) // warm-up: sizes every scratch and the Adam moments
		opt.Step(m.Params())
		_, dlogits := tensor.NLLLossInto(nil, tensor.LogSoftmaxInto(nil, m.Forward(b, x)), labels)
		if got := testing.AllocsPerRun(20, func() {
			runtime.GC()
			m.Forward(b, x)
			m.Backward(dlogits)
			opt.Step(m.Params())
		}); got != 0 {
			t.Errorf("%v: Forward+Backward+Step allocates %v times, want 0", kind, got)
		}
		if got := testing.AllocsPerRun(20, func() {
			runtime.GC()
			m.Loss(b, x, labels)
			opt.Step(m.Params())
		}); got != 0 {
			t.Errorf("%v: Loss+Step allocates %v times, want 0", kind, got)
		}
	}
}
