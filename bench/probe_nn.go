package main

import (
	"gnndrive/internal/core"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

func (r *replay) initTrain() {
	if r.opts.RealTrain {
		ds := r.d.ds
		r.model = nn.NewModel(nn.Config{Kind: r.opts.Model, InDim: ds.Dim, Hidden: r.opts.Hidden,
			Classes: ds.NumClasses, Layers: r.opts.Layers}, tensor.NewRNG(r.opts.Seed*7919))
		r.opt = nn.NewAdam(r.opts.LR)
	}
	r.initCheckpoint()
}

// trainStep is the engine's train stage for one batch: gather the batch's
// features out of the feature buffer through the alias list, then one
// real forward + backward + optimizer step (or the modeled GPU's compute
// time).
func (r *replay) trainStep(parent spanID, i int, b *sample.Batch, res *core.Reservation) {
	if r.model == nil {
		r.computeStep(parent, i, b)
		return
	}
	ds := r.d.ds
	r.x = tensor.EnsureShape(r.x, len(b.Nodes), ds.Dim)
	for k := range b.Nodes {
		copy(r.x.Row(k), r.fb.SlotData(res.Alias[k]))
	}
	if cap(r.labels) < b.NumTargets {
		r.labels = make([]int32, b.NumTargets)
	}
	labels := r.labels[:b.NumTargets]
	for k := range labels {
		labels[k] = ds.Labels[b.Nodes[k]]
	}
	before := readMem()
	id := r.rec.begin(spanStep, parent, i)
	r.model.Loss(b, r.x, labels)
	r.opt.Step(r.model.Params())
	r.rec.end(id)
	r.stepAllocs += readMem().since(before).mallocs
	r.steps++
}

func (r *replay) nnMetrics(m metricSet, totals map[string]spanTotal) {
	s := totals[spanStep]
	m["nn.step_us"] = ratio(float64(s.dur)/1e3, float64(s.n))
	m["nn.allocs_per_step"] = ratio(float64(r.stepAllocs), float64(r.steps))
}
