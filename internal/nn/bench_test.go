package nn

import (
	"testing"

	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// benchBatch builds a 2-hop synthetic batch of ~n nodes.
func benchBatch(n int) *sample.Batch {
	b := &sample.Batch{NumTargets: n / 10}
	for i := 0; i < n; i++ {
		b.Nodes = append(b.Nodes, int64(i))
	}
	l1 := sample.Layer{}
	for d := 0; d < b.NumTargets; d++ {
		for k := 1; k <= 3; k++ {
			l1.Src = append(l1.Src, int32((d*3+k)%n))
			l1.Dst = append(l1.Dst, int32(d))
		}
	}
	l2 := sample.Layer{}
	for d := b.NumTargets; d < n/2; d++ {
		l2.Src = append(l2.Src, int32((d*7+1)%n))
		l2.Dst = append(l2.Dst, int32(d))
	}
	b.Layers = []sample.Layer{l1, l2}
	return b
}

func benchModel(b *testing.B, kind ModelKind) {
	b.Helper()
	rng := tensor.NewRNG(1)
	m := NewModel(Config{Kind: kind, InDim: 128, Hidden: 128, Classes: 64, Layers: 2}, rng)
	batch := benchBatch(1000)
	x := tensor.New(1000, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat32()
	}
	labels := make([]int32, batch.NumTargets)
	b.ReportAllocs()
	for b.Loop() {
		m.Loss(batch, x, labels)
	}
}

// BenchmarkSAGEStep measures one forward+backward GraphSAGE step.
func BenchmarkSAGEStep(b *testing.B) { benchModel(b, GraphSAGE) }

// BenchmarkGCNStep measures one forward+backward GCN step.
func BenchmarkGCNStep(b *testing.B) { benchModel(b, GCN) }

// BenchmarkGATStep measures one forward+backward GAT step (attention).
func BenchmarkGATStep(b *testing.B) { benchModel(b, GAT) }
