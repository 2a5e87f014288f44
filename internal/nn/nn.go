// Package nn implements the three GNN models the paper evaluates —
// GraphSAGE, GCN, and GAT (§5) — with explicit reverse-mode gradients and
// an Adam optimizer, over the layered mini-batch subgraphs produced by
// internal/sample. Three layers, 256 hidden units, and fanouts
// (10,10,10)/(10,10,5) reproduce the paper's model configuration.
package nn

import (
	"fmt"

	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// ModelKind selects the GNN architecture.
type ModelKind int

// The paper's three models.
const (
	GraphSAGE ModelKind = iota
	GCN
	GAT
)

// String returns the model name as the paper spells it.
func (k ModelKind) String() string {
	switch k {
	case GraphSAGE:
		return "GraphSAGE"
	case GCN:
		return "GCN"
	case GAT:
		return "GAT"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// ModelByName parses a model name.
func ModelByName(s string) (ModelKind, error) {
	switch s {
	case "sage", "graphsage", "GraphSAGE":
		return GraphSAGE, nil
	case "gcn", "GCN":
		return GCN, nil
	case "gat", "GAT":
		return GAT, nil
	}
	return 0, fmt.Errorf("nn: unknown model %q", s)
}

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	G    *tensor.Matrix
}

func newParam(name string, rows, cols int, rng *tensor.RNG) *Param {
	p := &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
	tensor.XavierInit(p.W, rows, cols, rng)
	return p
}

func newZeroParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// edges is the union edge list a batch's convolutions aggregate along:
// every sampled edge once plus exactly one self-loop per node.
type edges struct {
	src, dst []int32
	deg      []float32 // in-degree per dst, self-loop included
	n        int
}

// buildEdges unions the batch's hop layers, deduplicates self-loops, and
// appends one self-loop per node.
func buildEdges(b *sample.Batch) *edges {
	n := len(b.Nodes)
	e := &edges{n: n}
	for _, l := range b.Layers {
		for i := range l.Src {
			if l.Src[i] == l.Dst[i] {
				continue // sampler self-loops are re-added uniformly below
			}
			e.src = append(e.src, l.Src[i])
			e.dst = append(e.dst, l.Dst[i])
		}
	}
	for v := 0; v < n; v++ {
		e.src = append(e.src, int32(v))
		e.dst = append(e.dst, int32(v))
	}
	e.deg = make([]float32, n)
	for _, d := range e.dst {
		e.deg[d]++
	}
	return e
}

// conv is one message-passing layer with cached forward state.
type conv interface {
	forward(e *edges, x *tensor.Matrix) *tensor.Matrix
	backward(dout *tensor.Matrix) *tensor.Matrix
	params() []*Param
}

// Model is a k-layer GNN. It is not safe for concurrent use; data-parallel
// workers hold replicas and synchronize gradients explicitly.
type Model struct {
	Kind    ModelKind
	convs   []conv
	relus   []*tensor.Matrix // cached post-activation outputs per hidden layer
	lastOut *tensor.Matrix
	targets int
}

// Config sizes a model.
type Config struct {
	Kind    ModelKind
	InDim   int
	Hidden  int
	Classes int
	Layers  int
}

// DefaultConfig mirrors the paper: 3 layers, hidden dimension 256.
func DefaultConfig(kind ModelKind, inDim, classes int) Config {
	return Config{Kind: kind, InDim: inDim, Hidden: 256, Classes: classes, Layers: 3}
}

// NewModel builds a model with Xavier-initialized parameters.
func NewModel(cfg Config, rng *tensor.RNG) *Model {
	if cfg.Layers < 1 {
		panic("nn: need at least one layer")
	}
	m := &Model{Kind: cfg.Kind}
	dims := make([]int, cfg.Layers+1)
	dims[0] = cfg.InDim
	for i := 1; i < cfg.Layers; i++ {
		dims[i] = cfg.Hidden
	}
	dims[cfg.Layers] = cfg.Classes
	for l := 0; l < cfg.Layers; l++ {
		name := fmt.Sprintf("conv%d", l)
		switch cfg.Kind {
		case GraphSAGE:
			m.convs = append(m.convs, newSAGEConv(name, dims[l], dims[l+1], rng))
		case GCN:
			m.convs = append(m.convs, newGCNConv(name, dims[l], dims[l+1], rng))
		case GAT:
			m.convs = append(m.convs, newGATConv(name, dims[l], dims[l+1], rng))
		default:
			panic(fmt.Sprintf("nn: unknown kind %v", cfg.Kind))
		}
	}
	return m
}

// Params returns every trainable parameter.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, c := range m.convs {
		ps = append(ps, c.params()...)
	}
	return ps
}

// Forward runs the network over the batch's subgraph given the feature
// matrix x (row i = features of b.Nodes[i]) and returns logits for the
// batch's target nodes (rows 0..NumTargets).
func (m *Model) Forward(b *sample.Batch, x *tensor.Matrix) *tensor.Matrix {
	if x.Rows != len(b.Nodes) {
		panic(fmt.Sprintf("nn: %d feature rows for %d nodes", x.Rows, len(b.Nodes)))
	}
	e := buildEdges(b)
	m.relus = m.relus[:0]
	h := x
	for l, c := range m.convs {
		h = c.forward(e, h)
		if l < len(m.convs)-1 {
			tensor.ReLU(h)
			m.relus = append(m.relus, h)
		}
	}
	m.lastOut = h
	m.targets = b.NumTargets
	logits := tensor.New(b.NumTargets, h.Cols)
	for i := 0; i < b.NumTargets; i++ {
		copy(logits.Row(i), h.Row(i))
	}
	return logits
}

// Backward accumulates parameter gradients given dlogits (the gradient
// w.r.t. the target-node logits, e.g. from tensor.NLLLoss).
func (m *Model) Backward(dlogits *tensor.Matrix) {
	if dlogits.Rows != m.targets {
		panic(fmt.Sprintf("nn: dlogits rows %d != targets %d", dlogits.Rows, m.targets))
	}
	dh := tensor.New(m.lastOut.Rows, m.lastOut.Cols)
	for i := 0; i < m.targets; i++ {
		copy(dh.Row(i), dlogits.Row(i))
	}
	for l := len(m.convs) - 1; l >= 0; l-- {
		if l < len(m.convs)-1 {
			tensor.ReLUBackward(dh, m.relus[l])
		}
		dh = m.convs[l].backward(dh)
	}
}

// Loss runs forward + NLL loss + backward for one batch and returns the
// loss value and target-node accuracy.
func (m *Model) Loss(b *sample.Batch, x *tensor.Matrix, labels []int32) (float32, float64) {
	logits := m.Forward(b, x)
	logp := tensor.LogSoftmax(logits)
	loss, dlogits := tensor.NLLLoss(logp, labels)
	m.Backward(dlogits)
	return loss, tensor.Accuracy(logits, labels)
}

// Predict runs forward only and returns target-node logits.
func (m *Model) Predict(b *sample.Batch, x *tensor.Matrix) *tensor.Matrix {
	return m.Forward(b, x)
}

// CopyParamsFrom copies parameter values (not gradients) from src; used
// to fan a master model out to data-parallel replicas.
func (m *Model) CopyParamsFrom(src *Model) {
	dst, s := m.Params(), src.Params()
	if len(dst) != len(s) {
		panic("nn: model shapes differ")
	}
	for i := range dst {
		copy(dst[i].W.Data, s[i].W.Data)
	}
}

// GradBytes returns the total gradient payload size in bytes, the volume a
// data-parallel all-reduce must move per step.
func (m *Model) GradBytes() int64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(len(p.G.Data)) * 4
	}
	return n
}
