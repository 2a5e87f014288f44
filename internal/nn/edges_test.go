package nn

import (
	"testing"
	"testing/quick"

	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// Property: for any random layered batch, buildEdges produces exactly one
// self-loop per node, degree[v] = in-edges(v)+1, and total edge count =
// non-self sampled edges + n.
func TestBuildEdgesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(30)
		b := &sample.Batch{NumTargets: 1}
		for i := 0; i < n; i++ {
			b.Nodes = append(b.Nodes, int64(i))
		}
		layers := 1 + rng.Intn(3)
		nonSelf := 0
		for l := 0; l < layers; l++ {
			var layer sample.Layer
			edges := rng.Intn(40)
			for e := 0; e < edges; e++ {
				src := int32(rng.Intn(n))
				dst := int32(rng.Intn(n))
				layer.Src = append(layer.Src, src)
				layer.Dst = append(layer.Dst, dst)
				if src != dst {
					nonSelf++
				}
			}
			b.Layers = append(b.Layers, layer)
		}
		e := buildEdges(b)
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
		e := buildEdges(b)
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
		e := buildEdges(b)
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
