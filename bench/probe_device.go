package main

import (
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
)

// deviceEngineMetrics reports the modeled device's busy time and traffic
// per steady epoch of the engine pass.
func deviceEngineMetrics(m metricSet, a, b engineSnap, epochs int) {
	n := float64(epochs)
	m["device.transfer_busy_s"] = ratio((b.xferBusy - a.xferBusy).Seconds(), n)
	m["device.compute_busy_s"] = ratio((b.computeBusy - a.computeBusy).Seconds(), n)
	m["device.mb_moved_per_epoch"] = ratio(float64(b.moved-a.moved)/(1<<20), n)
}

// transferStep decodes a completed read's vectors into their feature
// slots and schedules the modeled host-to-device copy; when it lands the
// nodes turn valid and the staging slot is returned — the extractor's
// transferOp.
func (r *replay) transferStep(parent spanID, i int, b *sample.Batch, res *core.Reservation, op core.ReadOp, slot int32) {
	featBytes := int(r.d.ds.FeatBytes())
	buf := r.staging.Buf(slot)
	nodes := make([]int64, len(op.Nodes))
	for k, rn := range op.Nodes {
		dst := r.fb.SlotData(res.Alias[rn.Pos])
		graph.DecodeFeature(buf[rn.BufOff:rn.BufOff+featBytes], dst[:0])
		nodes[k] = b.Nodes[rn.Pos]
	}
	id := r.rec.begin(spanDeviceCopy, parent, i)
	r.xferWG.Add(1)
	r.dev.CopyAsync(int64(len(nodes)*featBytes), func() {
		r.rec.end(id)
		t0 := time.Now()
		for _, n := range nodes {
			r.fb.MarkValid(n)
		}
		r.markValidNs.Add(int64(time.Since(t0)))
		r.staging.Release(slot)
		r.xferWG.Done()
	})
}

// computeStep stands in for training when the workload models the GPU.
func (r *replay) computeStep(parent spanID, i int, b *sample.Batch) {
	id := r.rec.begin(spanCompute, parent, i)
	r.dev.Compute(device.Work{
		Model: r.opts.Model, Nodes: int64(len(b.Nodes)), Edges: b.NumEdges(),
		InDim: r.d.ds.Dim, Hidden: r.opts.Hidden, Classes: r.d.ds.NumClasses,
		Layers: r.opts.Layers, Backward: true,
	})
	r.rec.end(id)
}

func (r *replay) deviceMetrics(m metricSet, totals map[string]spanTotal) {
	c := totals[spanDeviceCopy]
	m["device.copy_us"] = ratio(float64(c.dur)/1e3, float64(c.n))
}
