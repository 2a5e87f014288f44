package main

import (
	"gnndrive/internal/core"
	"gnndrive/internal/layout"
	"gnndrive/internal/sample"
)

// planStep builds the batch's read plan with the planner the extractor
// would pick: the dedicated strided planner for the default layout,
// AddrPlanner for everything else. Allocation is counted across the
// planner call alone (the replay is serial, so nothing else allocates).
func (r *replay) planStep(parent spanID, i int, b *sample.Batch, res *core.Reservation) ([]core.ReadOp, error) {
	ds := r.d.ds
	r.loadNodes, r.positions = r.loadNodes[:0], r.positions[:0]
	for _, pos := range res.ToLoad {
		r.loadNodes = append(r.loadNodes, b.Nodes[pos])
		r.positions = append(r.positions, pos)
	}
	addr := ds.Addresser()
	_, strided := addr.(layout.Strided)
	var err error
	before := readMem()
	id := r.rec.begin(spanPlan, parent, i)
	if strided {
		r.plan = core.BuildReadPlanInto(r.plan[:0], ds.Layout.FeaturesOff, int(ds.FeatBytes()),
			ds.Dev.SectorSize(), r.opts.MaxJointRead, r.loadNodes, r.positions)
	} else {
		r.plan, err = r.addrPlan.PlanInto(r.plan[:0], addr, ds.Dev.SectorSize(),
			r.opts.MaxJointRead, r.loadNodes, r.positions)
	}
	r.rec.end(id)
	r.planAllocs += readMem().since(before).mallocs
	r.planOps += int64(len(r.plan))
	return r.plan, err
}

func (r *replay) planMetrics(m metricSet, perBatchUs func(string) float64, batches float64) {
	m["plan.build_us"] = perBatchUs(spanPlan)
	m["plan.ops_per_batch"] = ratio(float64(r.planOps), batches)
	m["plan.allocs_per_batch"] = ratio(float64(r.planAllocs), batches)
}
