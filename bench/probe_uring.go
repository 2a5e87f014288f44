package main

import (
	"errors"
	"fmt"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
)

// readStep issues the plan's reads the way the extractor's runPlan does
// on its healthy path: queue a wave up to the ring depth, flush it as one
// batched submission, collect one completion, start its device transfer,
// and top the wave up again.
func (r *replay) readStep(parent spanID, i int, b *sample.Batch, res *core.Reservation, plan []core.ReadOp) error {
	if cap(r.opSlot) < len(plan) {
		r.opSlot = make([]int32, len(plan))
	}
	opSlot := r.opSlot[:len(plan)]
	next, inflight := 0, 0
	var firstErr error
	for (firstErr == nil && next < len(plan)) || inflight > 0 {
		if firstErr == nil && next < len(plan) && inflight < r.ring.Depth() {
			id := r.rec.begin(spanSubmit, parent, i)
			acquireNs, acquires := r.acquireNs, r.acquires
			for firstErr == nil && next < len(plan) && inflight < r.ring.Depth() {
				slot, ok, err := r.acquireSlot(inflight == 0)
				if err != nil {
					firstErr = err
					break
				}
				if !ok {
					break // a completion will free a slot
				}
				buf := r.staging.Buf(slot)[:plan[next].Len]
				err = r.ring.QueueReadCtx(r.ctx, buf, plan[next].DevOff, uint64(next))
				if errors.Is(err, storage.ErrUnaligned) {
					err = r.ring.QueueBufferedReadCtx(r.ctx, buf, plan[next].DevOff, uint64(next))
				}
				if err != nil {
					r.staging.Release(slot)
					firstErr = err
					break
				}
				opSlot[next] = slot
				next++
				inflight++
			}
			r.ring.Flush()
			r.rec.cover(id, time.Duration(r.acquireNs-acquireNs), r.acquires-acquires)
			r.rec.end(id)
		}
		if inflight == 0 {
			continue
		}
		id := r.rec.begin(spanWait, parent, i)
		cqe := r.ring.WaitCQE()
		r.rec.end(id)
		inflight--
		op := int(cqe.User)
		if cqe.Err != nil {
			r.staging.Release(opSlot[op])
			if firstErr == nil {
				firstErr = fmt.Errorf("read [%d,+%d): %w", plan[op].DevOff, plan[op].Len, cqe.Err)
			}
			continue
		}
		r.transferStep(parent, i, b, res, plan[op], opSlot[op])
	}
	r.xferWG.Wait()
	return firstErr
}

func (r *replay) uringMetrics(m metricSet, perBatchUs func(string) float64, mk replayMark, batches float64) {
	m["uring.submit_us"] = perBatchUs(spanSubmit)
	m["uring.wait_us"] = perBatchUs(spanWait)
	m["uring.flushes_per_batch"] = ratio(float64(r.ring.Flushes()-mk.flushes), batches)
	m["replay.reads_per_batch"] = ratio(float64(r.d.top().counts().since(mk.top).reads), batches)
}
