package nn

import (
	"math"
	"slices"
	"testing"

	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// toyBatch builds a fixed 2-hop batch over 6 nodes: targets {0,1};
// hop1: 2->0, 3->0, 3->1; hop2: 4->2, 5->3.
func toyBatch() *sample.Batch {
	return &sample.Batch{
		ID:         0,
		Nodes:      []int64{10, 11, 12, 13, 14, 15},
		NumTargets: 2,
		Layers: []sample.Layer{
			{Src: []int32{2, 3, 3}, Dst: []int32{0, 0, 1}},
			{Src: []int32{4, 5}, Dst: []int32{2, 3}},
		},
	}
}

func toyFeatures(rng *tensor.RNG, dim int) *tensor.Matrix {
	x := tensor.New(6, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat32()
	}
	return x
}

func TestBuildEdgesSelfLoopsAndDegrees(t *testing.T) {
	b := toyBatch()
	e := unionOf(b)
	if e.n != 6 {
		t.Fatalf("n=%d", e.n)
	}
	// 5 sampled edges + 6 self-loops.
	if len(e.src) != 11 {
		t.Fatalf("edges=%d want 11", len(e.src))
	}
	wantDeg := []float32{3, 2, 2, 2, 1, 1}
	for v, w := range wantDeg {
		if e.deg[v] != w {
			t.Fatalf("deg[%d]=%v want %v", v, e.deg[v], w)
		}
	}
}

func TestBuildEdgesDedupsSamplerSelfLoops(t *testing.T) {
	b := toyBatch()
	b.Layers[0].Src = append(b.Layers[0].Src, 0)
	b.Layers[0].Dst = append(b.Layers[0].Dst, 0) // sampler-style self loop
	e := unionOf(b)
	self := 0
	for i := range e.src {
		if e.src[i] == 0 && e.dst[i] == 0 {
			self++
		}
	}
	if self != 1 {
		t.Fatalf("node 0 has %d self-loops, want exactly 1", self)
	}
}

func TestForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		m := NewModel(Config{Kind: kind, InDim: 8, Hidden: 16, Classes: 5, Layers: 2}, rng)
		b := toyBatch()
		x := toyFeatures(rng, 8)
		logits := m.Forward(b, x)
		if logits.Rows != 2 || logits.Cols != 5 {
			t.Fatalf("%v: logits %v", kind, logits)
		}
	}
}

func TestForwardRejectsWrongRows(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewModel(Config{Kind: GCN, InDim: 4, Hidden: 8, Classes: 3, Layers: 2}, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(toyBatch(), tensor.New(5, 4))
}

// numericalGradCheck compares analytic parameter gradients with central
// differences of the loss for every model kind.
func numericalGradCheck(t *testing.T, kind ModelKind) {
	t.Helper()
	rng := tensor.NewRNG(uint64(3 + kind))
	m := NewModel(Config{Kind: kind, InDim: 5, Hidden: 7, Classes: 4, Layers: 2}, rng)
	b := toyBatch()
	x := toyFeatures(rng, 5)
	labels := []int32{1, 3}

	lossOf := func() float64 {
		logits := m.Forward(b, x)
		lp := tensor.LogSoftmaxInto(nil, logits)
		l, _ := tensor.NLLLossInto(nil, lp, labels)
		return float64(l)
	}

	logits := m.Forward(b, x)
	lp := tensor.LogSoftmaxInto(nil, logits)
	_, dlogits := tensor.NLLLossInto(nil, lp, labels)
	m.Backward(dlogits)

	eps := 1e-3
	checked := 0
	for _, p := range m.Params() {
		stride := len(p.W.Data)/3 + 1
		for i := 0; i < len(p.W.Data); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + float32(eps)
			lplus := lossOf()
			p.W.Data[i] = orig - float32(eps)
			lminus := lossOf()
			p.W.Data[i] = orig
			num := (lplus - lminus) / (2 * eps)
			ana := float64(p.G.Data[i])
			if diff := math.Abs(num - ana); diff > 5e-3 && diff > 0.2*math.Abs(num) {
				t.Fatalf("%v %s[%d]: numeric %.5f analytic %.5f", kind, p.Name, i, num, ana)
			}
			checked++
		}
	}
	if checked < 6 {
		t.Fatalf("only %d gradient probes", checked)
	}
}

func TestGradCheckSAGE(t *testing.T) { numericalGradCheck(t, GraphSAGE) }
func TestGradCheckGCN(t *testing.T)  { numericalGradCheck(t, GCN) }
func TestGradCheckGAT(t *testing.T)  { numericalGradCheck(t, GAT) }

func TestTrainingReducesLoss(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		rng := tensor.NewRNG(11)
		m := NewModel(Config{Kind: kind, InDim: 6, Hidden: 12, Classes: 3, Layers: 2}, rng)
		opt := NewAdam(0.01)
		b := toyBatch()
		x := toyFeatures(rng, 6)
		labels := []int32{0, 2}
		var first, last float32
		for step := 0; step < 60; step++ {
			loss, _ := m.Loss(b, x, labels)
			opt.Step(m.Params())
			if step == 0 {
				first = loss
			}
			last = loss
		}
		if last >= first/2 {
			t.Fatalf("%v: loss %v -> %v did not halve", kind, first, last)
		}
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	rng := tensor.NewRNG(13)
	m := NewModel(Config{Kind: GCN, InDim: 4, Hidden: 4, Classes: 2, Layers: 1}, rng)
	b := toyBatch()
	x := toyFeatures(rng, 4)
	m.Loss(b, x, []int32{0, 1})
	opt := NewAdam(0.001)
	opt.Step(m.Params())
	for _, p := range m.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatalf("%s gradient not cleared", p.Name)
			}
		}
	}
}

func TestAdamMovesParamsAgainstGradient(t *testing.T) {
	p := newZeroParam("p", 1, 2)
	p.G.Data[0] = 1
	p.G.Data[1] = -1
	opt := NewAdam(0.1)
	opt.Step([]*Param{p})
	if p.W.Data[0] >= 0 || p.W.Data[1] <= 0 {
		t.Fatalf("params %v moved with the gradient", p.W.Data)
	}
}

func TestCopyParamsFrom(t *testing.T) {
	rng := tensor.NewRNG(17)
	a := NewModel(Config{Kind: GraphSAGE, InDim: 4, Hidden: 8, Classes: 3, Layers: 2}, rng)
	b := NewModel(Config{Kind: GraphSAGE, InDim: 4, Hidden: 8, Classes: 3, Layers: 2}, tensor.NewRNG(18))
	b.CopyParamsFrom(a)
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].W.Data {
			if ap[i].W.Data[j] != bp[i].W.Data[j] {
				t.Fatalf("param %s not copied", ap[i].Name)
			}
		}
	}
}

func TestGradBytesPositive(t *testing.T) {
	m := NewModel(Config{Kind: GAT, InDim: 4, Hidden: 8, Classes: 3, Layers: 2}, tensor.NewRNG(19))
	if m.GradBytes() <= 0 {
		t.Fatal("GradBytes must be positive")
	}
}

func TestModelKindString(t *testing.T) {
	if GraphSAGE.String() != "GraphSAGE" || GCN.String() != "GCN" || GAT.String() != "GAT" {
		t.Fatal("bad kind names")
	}
	if _, err := ModelByName("sage"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByName("mlp"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterministicForward(t *testing.T) {
	build := func() *tensor.Matrix {
		rng := tensor.NewRNG(23)
		m := NewModel(Config{Kind: GAT, InDim: 5, Hidden: 6, Classes: 4, Layers: 2}, rng)
		return m.Forward(toyBatch(), toyFeatures(tensor.NewRNG(24), 5))
	}
	a, b := build(), build()
	if !slices.Equal(a.Data, b.Data) {
		t.Fatal("forward not deterministic")
	}
}
