package nn

import (
	"math"

	"gnndrive/internal/tensor"
)

// meanAggregate computes per-dst means of src rows along e (self-loop
// included in e), returning the [n x dim] aggregate. dst is reused when
// its capacity suffices (pass nil to allocate).
func meanAggregate(dst *tensor.Matrix, e *edges, x *tensor.Matrix) *tensor.Matrix {
	agg := tensor.EnsureShape(dst, e.n, x.Cols)
	agg.Zero()
	for i := range e.src {
		d := agg.Row(int(e.dst[i]))
		s := x.Row(int(e.src[i]))
		for j, v := range s {
			d[j] += v
		}
	}
	for v := 0; v < e.n; v++ {
		if dg := e.deg[v]; dg > 1 {
			row := agg.Row(v)
			inv := 1 / dg
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return agg
}

// meanAggregateBackward scatters dagg back to dx through the mean.
func meanAggregateBackward(e *edges, dagg *tensor.Matrix, dx *tensor.Matrix) {
	for i := range e.src {
		d := dagg.Row(int(e.dst[i]))
		s := dx.Row(int(e.src[i]))
		inv := float32(1) / e.deg[e.dst[i]]
		for j, v := range d {
			s[j] += v * inv
		}
	}
}

// sageConv is GraphSAGE with mean aggregator:
// out = x·Wself + mean_{u in N(v) ∪ {v}}(x_u)·Wneigh + b.
//
// The out/tmp/gw/dx/dagg matrices are per-conv scratch reused across
// mini-batches, which is safe because Model is documented as not safe
// for concurrent use; each batch's values are consumed before the next
// forward/backward overwrites them.
type sageConv struct {
	wSelf, wNeigh, bias *Param
	// forward cache
	e   *edges
	x   *tensor.Matrix
	agg *tensor.Matrix
	// scratch
	out, tmp, gw, dx, dagg *tensor.Matrix
}

func newSAGEConv(name string, in, out int, rng *tensor.RNG) *sageConv {
	return &sageConv{
		wSelf:  newParam(name+".w_self", in, out, rng),
		wNeigh: newParam(name+".w_neigh", in, out, rng),
		bias:   newZeroParam(name+".bias", 1, out),
	}
}

func (c *sageConv) params() []*Param { return []*Param{c.wSelf, c.wNeigh, c.bias} }

func (c *sageConv) forward(e *edges, x *tensor.Matrix) *tensor.Matrix {
	c.e, c.x = e, x
	c.agg = meanAggregate(c.agg, e, x)
	c.out = tensor.EnsureShape(c.out, x.Rows, c.wSelf.W.Cols)
	tensor.MatMulInto(c.out, x, c.wSelf.W)
	c.tmp = tensor.EnsureShape(c.tmp, x.Rows, c.wNeigh.W.Cols)
	tensor.MatMulInto(c.tmp, c.agg, c.wNeigh.W)
	c.out.Add(c.tmp)
	c.out.AddRowVector(c.bias.W.Data)
	return c.out
}

func (c *sageConv) backward(dout *tensor.Matrix) *tensor.Matrix {
	c.gw = tensor.EnsureShape(c.gw, c.x.Cols, dout.Cols)
	tensor.MatMulT1Into(c.gw, c.x, dout)
	c.wSelf.G.Add(c.gw)
	tensor.MatMulT1Into(c.gw, c.agg, dout)
	c.wNeigh.G.Add(c.gw)
	dout.ColSumsInto(c.bias.G.Data)
	c.dx = tensor.EnsureShape(c.dx, dout.Rows, c.wSelf.W.Rows)
	tensor.MatMulT2Into(c.dx, dout, c.wSelf.W)
	c.dagg = tensor.EnsureShape(c.dagg, dout.Rows, c.wNeigh.W.Rows)
	tensor.MatMulT2Into(c.dagg, dout, c.wNeigh.W)
	meanAggregateBackward(c.e, c.dagg, c.dx)
	return c.dx
}

// gcnConv is a GCN layer with mean-normalized aggregation over
// N(v) ∪ {v}: out = mean(x)·W + b.
type gcnConv struct {
	w, bias *Param
	e       *edges
	x       *tensor.Matrix
	agg     *tensor.Matrix
	// scratch, reused across batches (Model is not concurrent-safe)
	out, gw, dx, dagg *tensor.Matrix
}

func newGCNConv(name string, in, out int, rng *tensor.RNG) *gcnConv {
	return &gcnConv{
		w:    newParam(name+".w", in, out, rng),
		bias: newZeroParam(name+".bias", 1, out),
	}
}

func (c *gcnConv) params() []*Param { return []*Param{c.w, c.bias} }

func (c *gcnConv) forward(e *edges, x *tensor.Matrix) *tensor.Matrix {
	c.e, c.x = e, x
	c.agg = meanAggregate(c.agg, e, x)
	c.out = tensor.EnsureShape(c.out, c.agg.Rows, c.w.W.Cols)
	tensor.MatMulInto(c.out, c.agg, c.w.W)
	c.out.AddRowVector(c.bias.W.Data)
	return c.out
}

func (c *gcnConv) backward(dout *tensor.Matrix) *tensor.Matrix {
	c.gw = tensor.EnsureShape(c.gw, c.agg.Cols, dout.Cols)
	tensor.MatMulT1Into(c.gw, c.agg, dout)
	c.w.G.Add(c.gw)
	dout.ColSumsInto(c.bias.G.Data)
	c.dagg = tensor.EnsureShape(c.dagg, dout.Rows, c.w.W.Rows)
	tensor.MatMulT2Into(c.dagg, dout, c.w.W)
	c.dx = tensor.EnsureShape(c.dx, c.x.Rows, c.x.Cols)
	c.dx.Zero()
	meanAggregateBackward(c.e, c.dagg, c.dx)
	return c.dx
}

// gatConv is a single-head graph attention layer:
//
//	h = x·W;  e_uv = LeakyReLU(a1·h_u + a2·h_v);  α = softmax_v(e)
//	out_v = Σ_u α_uv h_u + b
type gatConv struct {
	w, a1, a2, bias *Param

	// forward cache
	e      *edges
	x, h   *tensor.Matrix
	scores []float32 // pre-activation edge scores
	alpha  []float32 // attention weights
	// scratch, reused across batches (Model is not concurrent-safe):
	// node and edge back every per-node and per-edge vector of a pass
	// (scores, alpha and etmp are pieces of edge).
	out, dh, gw, dx, bg *tensor.Matrix
	node, edge          []float32
	etmp                []float32 // activations forward, dalpha backward
}

const gatSlope = 0.2

func newGATConv(name string, in, out int, rng *tensor.RNG) *gatConv {
	return &gatConv{
		w:    newParam(name+".w", in, out, rng),
		a1:   newParam(name+".a_src", out, 1, rng),
		a2:   newParam(name+".a_dst", out, 1, rng),
		bias: newZeroParam(name+".bias", 1, out),
	}
}

func (c *gatConv) params() []*Param { return []*Param{c.w, c.a1, c.a2, c.bias} }

// carve resizes *buf to parts*n elements, reallocating only when its
// capacity is short (contents unspecified), and returns its parts
// consecutive length-n pieces.
func carve(buf *[]float32, parts, n int) (p [4][]float32) {
	if cap(*buf) < parts*n {
		*buf = make([]float32, parts*n)
	}
	*buf = (*buf)[:parts*n]
	for i := 0; i < parts; i++ {
		p[i] = (*buf)[i*n : (i+1)*n : (i+1)*n]
	}
	return p
}

func (c *gatConv) forward(e *edges, x *tensor.Matrix) *tensor.Matrix {
	c.e, c.x = e, x
	c.h = tensor.EnsureShape(c.h, x.Rows, c.w.W.Cols)
	tensor.MatMulInto(c.h, x, c.w.W)
	n, m := e.n, len(e.src)
	np, ep := carve(&c.node, 4, n), carve(&c.edge, 3, m)
	s1, s2, maxPerDst, sumPerDst := np[0], np[1], np[2], np[3]
	c.scores, c.alpha, c.etmp = ep[0], ep[1], ep[2]
	act := c.etmp
	// Per-node projections onto the attention vectors.
	for v := 0; v < n; v++ {
		row := c.h.Row(v)
		var d1, d2 float32
		for j, hv := range row {
			d1 += hv * c.a1.W.Data[j]
			d2 += hv * c.a2.W.Data[j]
		}
		s1[v], s2[v] = d1, d2
		maxPerDst[v] = float32(math.Inf(-1))
		sumPerDst[v] = 0
	}
	for i := range e.src {
		s := s1[e.src[i]] + s2[e.dst[i]]
		c.scores[i] = s
		if s < 0 {
			s *= gatSlope
		}
		act[i] = s
		if s > maxPerDst[e.dst[i]] {
			maxPerDst[e.dst[i]] = s
		}
	}
	// Softmax over in-edges of each dst.
	for i := range e.src {
		a := float32(math.Exp(float64(act[i] - maxPerDst[e.dst[i]])))
		c.alpha[i] = a
		sumPerDst[e.dst[i]] += a
	}
	for i := range c.alpha {
		c.alpha[i] /= sumPerDst[e.dst[i]]
	}
	c.out = tensor.EnsureShape(c.out, n, c.h.Cols)
	c.out.Zero()
	for i := range e.src {
		d := c.out.Row(int(e.dst[i]))
		s := c.h.Row(int(e.src[i]))
		a := c.alpha[i]
		for j, v := range s {
			d[j] += a * v
		}
	}
	c.out.AddRowVector(c.bias.W.Data)
	return c.out
}

func (c *gatConv) backward(dout *tensor.Matrix) *tensor.Matrix {
	e, h := c.e, c.h
	n := e.n
	// The column sums are formed from zero and then added, not summed
	// straight into the gradient: the two round differently once the
	// gradient is non-zero.
	c.bg = tensor.EnsureShape(c.bg, 1, dout.Cols)
	c.bg.Zero()
	dout.ColSumsInto(c.bg.Data)
	c.bias.G.Add(c.bg)
	c.dh = tensor.EnsureShape(c.dh, h.Rows, h.Cols)
	c.dh.Zero()
	dh := c.dh
	// The forward pass's node vectors and activations are spent.
	dalpha := c.etmp
	np := carve(&c.node, 3, n)
	dotPerDst, ds1, ds2 := np[0], np[1], np[2]
	clear(c.node)
	for i := range e.src {
		dRow := dout.Row(int(e.dst[i]))
		hRow := h.Row(int(e.src[i]))
		dhRow := dh.Row(int(e.src[i]))
		a := c.alpha[i]
		var da float32
		for j, dv := range dRow {
			dhRow[j] += a * dv
			da += dv * hRow[j]
		}
		dalpha[i] = da
	}
	// Softmax backward per dst: de_i = α_i (dα_i - Σ_j α_j dα_j).
	for i := range e.src {
		dotPerDst[e.dst[i]] += c.alpha[i] * dalpha[i]
	}
	for i := range e.src {
		de := c.alpha[i] * (dalpha[i] - dotPerDst[e.dst[i]])
		if c.scores[i] < 0 {
			de *= gatSlope
		}
		ds1[e.src[i]] += de
		ds2[e.dst[i]] += de
	}
	// dh += ds1⊗a1 + ds2⊗a2; da1 = hᵀ·ds1; da2 = hᵀ·ds2.
	for v := 0; v < n; v++ {
		hRow := h.Row(v)
		dhRow := dh.Row(v)
		g1, g2 := ds1[v], ds2[v]
		for j := range hRow {
			dhRow[j] += g1*c.a1.W.Data[j] + g2*c.a2.W.Data[j]
			c.a1.G.Data[j] += g1 * hRow[j]
			c.a2.G.Data[j] += g2 * hRow[j]
		}
	}
	c.gw = tensor.EnsureShape(c.gw, c.x.Cols, dh.Cols)
	tensor.MatMulT1Into(c.gw, c.x, dh)
	c.w.G.Add(c.gw)
	c.dx = tensor.EnsureShape(c.dx, dh.Rows, c.w.W.Rows)
	tensor.MatMulT2Into(c.dx, dh, c.w.W)
	return c.dx
}
