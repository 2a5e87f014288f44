package nn

import (
	"testing"
	"testing/quick"

	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// unionOf returns b's union edge list.
func unionOf(b *sample.Batch) *edges {
	var e edges
	e.build(b)
	return &e
}

// randomBatch is a hand-built batch of 2..31 nodes, one target, and 1..3
// layers of random edges that ignore hop order: any node may feed any
// other in any layer, self-loops included.
func randomBatch(rng *tensor.RNG) *sample.Batch {
	n := 2 + rng.Intn(30)
	b := &sample.Batch{NumTargets: 1}
	for i := 0; i < n; i++ {
		b.Nodes = append(b.Nodes, int64(i))
	}
	layers := 1 + rng.Intn(3)
	for l := 0; l < layers; l++ {
		var layer sample.Layer
		edges := rng.Intn(40)
		for e := 0; e < edges; e++ {
			layer.Src = append(layer.Src, int32(rng.Intn(n)))
			layer.Dst = append(layer.Dst, int32(rng.Intn(n)))
		}
		b.Layers = append(b.Layers, layer)
	}
	return b
}

// Property: for any random layered batch, the union has exactly one
// self-loop per node, degree[v] = in-edges(v)+1, and total edge count =
// non-self sampled edges + n.
func TestBuildEdgesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		b := randomBatch(tensor.NewRNG(seed))
		n := len(b.Nodes)
		nonSelf := 0
		for _, l := range b.Layers {
			for i := range l.Src {
				if l.Src[i] != l.Dst[i] {
					nonSelf++
				}
			}
		}
		e := unionOf(b)
		if len(e.src) != nonSelf+n {
			return false
		}
		selfCount := make([]int, n)
		inDeg := make([]int, n)
		for i := range e.src {
			if e.src[i] == e.dst[i] {
				selfCount[e.dst[i]]++
			}
			inDeg[e.dst[i]]++
		}
		for v := 0; v < n; v++ {
			if selfCount[v] != 1 {
				return false
			}
			if float32(inDeg[v]) != e.deg[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Mean aggregation of constant features must be constant (mean of equal
// values), for every kind of random graph.
func TestMeanAggregateConstantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(20)
		b := &sample.Batch{NumTargets: 1}
		for i := 0; i < n; i++ {
			b.Nodes = append(b.Nodes, int64(i))
		}
		var layer sample.Layer
		for e := 0; e < rng.Intn(30); e++ {
			layer.Src = append(layer.Src, int32(rng.Intn(n)))
			layer.Dst = append(layer.Dst, int32(rng.Intn(n)))
		}
		b.Layers = []sample.Layer{layer}
		e := unionOf(b)
		x := tensor.New(n, 3)
		for i := range x.Data {
			x.Data[i] = 2.5
		}
		agg := meanAggregate(nil, e, x)
		for _, v := range agg.Data {
			if v < 2.4999 || v > 2.5001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// meanAggregateBackward must be the exact adjoint of meanAggregate:
// <aggregate(x), y> == <x, aggregateBackward(y)>.
func TestMeanAggregateAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(15)
		b := &sample.Batch{NumTargets: 1}
		for i := 0; i < n; i++ {
			b.Nodes = append(b.Nodes, int64(i))
		}
		var layer sample.Layer
		for e := 0; e < rng.Intn(25); e++ {
			layer.Src = append(layer.Src, int32(rng.Intn(n)))
			layer.Dst = append(layer.Dst, int32(rng.Intn(n)))
		}
		b.Layers = []sample.Layer{layer}
		e := unionOf(b)
		dim := 2
		x := tensor.New(n, dim)
		y := tensor.New(n, dim)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat32()
			y.Data[i] = rng.NormFloat32()
		}
		ax := meanAggregate(nil, e, x)
		var lhs float64
		for i := range ax.Data {
			lhs += float64(ax.Data[i]) * float64(y.Data[i])
		}
		aty := tensor.New(n, dim)
		meanAggregateBackward(e, y, aty)
		var rhs float64
		for i := range aty.Data {
			rhs += float64(aty.Data[i]) * float64(x.Data[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
