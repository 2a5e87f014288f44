// Package nn implements the three GNN models the paper evaluates —
// GraphSAGE, GCN, and GAT (§5) — with explicit reverse-mode gradients and
// an Adam optimizer, over the layered mini-batch subgraphs produced by
// internal/sample. Three layers, 256 hidden units, and fanouts
// (10,10,10)/(10,10,5) reproduce the paper's model configuration.
package nn

import (
	"fmt"
	"strings"

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

// ModelByName parses a model name in any case.
func ModelByName(s string) (ModelKind, error) {
	switch strings.ToLower(s) {
	case "sage", "graphsage":
		return GraphSAGE, nil
	case "gcn":
		return GCN, nil
	case "gat":
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

// edges is an edge list convolutions aggregate along: a batch's union
// (every sampled edge once plus exactly one self-loop per node), or the
// part of the union one conv reads. Every dst is below n.
type edges struct {
	src, dst []int32
	deg      []float32 // in-degree per dst over the union, self-loop included
	n        int
}

// build makes e the union of b's hop layers, in layer order with the
// sampler's self-loops dropped, followed by one self-loop per node. It
// reuses e's storage.
func (e *edges) build(b *sample.Batch) {
	n := len(b.Nodes)
	e.n = n
	e.src, e.dst = e.src[:0], e.dst[:0]
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
	if cap(e.deg) < n {
		e.deg = make([]float32, n)
	}
	e.deg = e.deg[:n]
	clear(e.deg)
	for _, d := range e.dst {
		e.deg[d]++
	}
}

// restrict makes sub the edges of e whose dst is below n, in e's order,
// reusing sub's storage. It returns the rows those edges read: n, or one
// past their largest src if that is more. Every in-edge of a kept dst is
// kept, so e's degrees hold for sub.
func (e *edges) restrict(sub *edges, n int) int {
	sub.src, sub.dst = sub.src[:0], sub.dst[:0]
	sub.deg, sub.n = e.deg, n
	in := n
	for i, d := range e.dst {
		if int(d) < n {
			s := e.src[i]
			sub.src = append(sub.src, s)
			sub.dst = append(sub.dst, d)
			in = max(in, int(s)+1)
		}
	}
	return in
}

// topRows points view at the first rows rows of m, without copying, and
// returns it.
func topRows(view, m *tensor.Matrix, rows int) *tensor.Matrix {
	*view = tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
	return view
}

// conv is one message-passing layer with cached forward state.
type conv interface {
	// forward computes e.n output rows from x, whose rows cover every
	// src of e.
	forward(e *edges, x *tensor.Matrix) *tensor.Matrix
	// backward accumulates the parameter gradients of dout (e.n rows)
	// and, if wantDX, returns the gradient w.r.t. x; otherwise nil.
	backward(dout *tensor.Matrix, wantDX bool) *tensor.Matrix
	params() []*Param
}

// Model is a k-layer GNN. It is not safe for concurrent use; data-parallel
// workers hold replicas and synchronize gradients explicitly.
type Model struct {
	Kind   ModelKind
	convs  []conv
	params []*Param         // every conv's parameters in order, built once
	relus  []*tensor.Matrix // cached post-activation outputs per hidden layer
	// Per-batch scratch, reused across steps: the union edge list, the
	// edges each conv aggregates along (sub[l] for conv l), the rows each
	// conv reads (rows[l] for conv l, rows[len(convs)] = the targets) and
	// the view of the input's first rows[0] rows.
	union edges
	sub   []edges
	rows  []int
	in    tensor.Matrix
	// The loss's scratch: the targets' log-probabilities and the gradient
	// w.r.t. their logits.
	logp, dlogits *tensor.Matrix
}

// Config sizes a model.
type Config struct {
	Kind    ModelKind
	InDim   int
	Hidden  int
	Classes int
	Layers  int
}

// NewModel builds a model with Xavier-initialized parameters.
func NewModel(cfg Config, rng *tensor.RNG) *Model {
	if cfg.Layers < 1 {
		panic("nn: need at least one layer")
	}
	m := &Model{Kind: cfg.Kind, relus: make([]*tensor.Matrix, 0, cfg.Layers-1),
		sub: make([]edges, cfg.Layers), rows: make([]int, cfg.Layers+1)}
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
		m.params = append(m.params, m.convs[l].params()...)
	}
	return m
}

// Params returns every trainable parameter. The slice is the model's own,
// built once: callers must not modify it.
func (m *Model) Params() []*Param { return m.params }

// receptiveField builds b's union edge list and works back from the
// output conv, which computes the targets' rows, to the rows every conv
// must compute: those the conv above it reads. Conv l aggregates along
// the union edges whose dst is below rows[l+1], and reads rows[l] rows.
func (m *Model) receptiveField(b *sample.Batch) {
	m.union.build(b)
	m.rows[len(m.convs)] = b.NumTargets
	for l := len(m.convs) - 1; l >= 0; l-- {
		m.rows[l] = m.union.restrict(&m.sub[l], m.rows[l+1])
	}
}

// Forward runs the network over the batch's subgraph given the feature
// matrix x (row i = features of b.Nodes[i]) and returns logits for the
// batch's target nodes (rows 0..NumTargets). Each conv computes only the
// rows the next one reads; under the sampler's targets-first, hop-by-hop
// node order those are the nodes within reach of the targets. The logits
// are model scratch, valid until the next Forward.
func (m *Model) Forward(b *sample.Batch, x *tensor.Matrix) *tensor.Matrix {
	if x.Rows != len(b.Nodes) {
		panic(fmt.Sprintf("nn: %d feature rows for %d nodes", x.Rows, len(b.Nodes)))
	}
	m.receptiveField(b)
	m.relus = m.relus[:0]
	h := topRows(&m.in, x, m.rows[0])
	for l, c := range m.convs {
		h = c.forward(&m.sub[l], h)
		if l < len(m.convs)-1 {
			tensor.ReLU(h)
			m.relus = append(m.relus, h)
		}
	}
	return h
}

// Backward accumulates parameter gradients given dlogits (the gradient
// w.r.t. the target-node logits, e.g. from tensor.NLLLossInto). The input
// conv computes no gradient w.r.t. the features.
func (m *Model) Backward(dlogits *tensor.Matrix) {
	if targets := m.rows[len(m.convs)]; dlogits.Rows != targets {
		panic(fmt.Sprintf("nn: dlogits rows %d != targets %d", dlogits.Rows, targets))
	}
	dh := dlogits
	for l := len(m.convs) - 1; l >= 0; l-- {
		if l < len(m.convs)-1 {
			tensor.ReLUBackward(dh, m.relus[l])
		}
		dh = m.convs[l].backward(dh, l > 0)
	}
}

// Loss runs forward + NLL loss + backward for one batch and returns the
// loss value and target-node accuracy.
func (m *Model) Loss(b *sample.Batch, x *tensor.Matrix, labels []int32) (float32, float64) {
	logits := m.Forward(b, x)
	m.logp = tensor.LogSoftmaxInto(m.logp, logits)
	var loss float32
	loss, m.dlogits = tensor.NLLLossInto(m.dlogits, m.logp, labels)
	m.Backward(m.dlogits)
	return loss, tensor.Accuracy(logits, labels)
}

// Predict runs forward only and returns target-node logits, valid until
// the model's next call.
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
