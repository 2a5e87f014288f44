package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/sample"
	"gnndrive/internal/uring"
)

// gdsGranularity is GPUDirect Storage's access granularity (§4.4: "GDS
// needs an access granularity of 4KB, redundant loading is inevitable").
const gdsGranularity = 4096

// trainItem is what the extract stage hands the trainer: the sampled
// subgraph plus the node alias list into the feature buffer.
type trainItem struct {
	batch *sample.Batch
	res   *Reservation
}

// trainItemPool recycles trainItems between the trainer (producer of
// free items) and the extractors.
var trainItemPool = sync.Pool{New: func() any { return new(trainItem) }}

func getTrainItem(b *sample.Batch, res *Reservation) *trainItem {
	it := trainItemPool.Get().(*trainItem)
	it.batch, it.res = b, res
	return it
}

func putTrainItem(it *trainItem) {
	it.batch, it.res = nil, nil
	trainItemPool.Put(it)
}

// extractor performs asynchronous two-phase feature extraction for one
// mini-batch at a time (§4.2, Algorithm 1). One extractor owns one
// io_uring ring, handling all of a mini-batch's I/O in a single thread.
type extractor struct {
	eng    *Engine
	ring   *uring.Ring
	policy errutil.Policy
	// addr is the dataset's addresser, taken once: Addresser boxes a
	// fresh strided table on every call.
	addr layout.Addresser
	// scratch reused across batches: the steady-state extract path reuses
	// these instead of allocating per batch
	loadNodes []int64
	plan      []ReadOp
	addrPlan  AddrPlanner
	opExt     []Extent
	attempts  []int
	// cqes is the scratch one drain's completions are reaped into.
	cqes []uring.CQE
	// xfersOut counts the batch's device transfers in flight, plus one
	// while runPlan can still launch; whoever takes it to zero signals
	// xfersDone. runPlan waits it back to zero before returning, so one
	// per extractor suffices. A channel, not a sync.WaitGroup: in a
	// synctest bubble under -race, WaitGroup.Wait hides the ordering of a
	// completion the device's timer delivers.
	xfersOut  atomic.Int64
	xfersDone chan struct{}
	// cur is the transfer record the running drain fills, if any, and
	// nxfer counts the transfers the current batch launched. free holds
	// the records whose transfer has completed, for the drains to come.
	cur    *xferRec
	nxfer  int
	freeMu sync.Mutex
	free   []*xferRec
}

func newExtractor(eng *Engine) *extractor {
	ring := uring.NewRing(eng.ds.Dev, eng.opts.RingDepth)
	return &extractor{
		eng:  eng,
		ring: ring,
		// Only the backoff schedule is the policy's: runPlan counts
		// attempts per op against retryBudget itself.
		policy:    errutil.Policy{BaseDelay: retryBackoff, Seed: eng.opts.Seed},
		addr:      eng.ds.Addresser(),
		cqes:      make([]uring.CQE, 0, ring.Depth()), // a drain reaps at most the ring's depth
		xfersDone: make(chan struct{}, 1),
	}
}

// extractBatch reserves feature-buffer slots for the batch, loads the
// missing vectors from SSD asynchronously, overlaps each node's
// host-to-device transfer with the remaining loads, and waits for nodes
// other extractors are bringing in. On any error — including ctx
// cancellation — the reservation's references are rolled back so the
// feature buffer ends the epoch with zero refcounts.
//
// The returned Counters are the batch's delta: the fault counters whatever
// the outcome, the read counters only for a batch that was handed on.
func (x *extractor) extractBatch(ctx context.Context, b *sample.Batch) (*trainItem, metrics.Counters, error) {
	eng := x.eng
	var st metrics.Counters
	res, err := eng.fb.ReserveCtx(ctx, b.Nodes)
	if err != nil {
		return nil, st, err
	}

	x.loadNodes = x.loadNodes[:0]
	for _, pos := range res.ToLoad {
		x.loadNodes = append(x.loadNodes, b.Nodes[pos])
	}
	featBytes := int(eng.ds.FeatBytes())
	switch {
	case eng.opts.BufferedIO:
		x.plan = x.addrPlan.exactInto(x.plan[:0], x.addr, x.loadNodes, res.ToLoad)
	case eng.opts.GPUDirect:
		// GDS reads go straight to device memory at 4 KiB granularity.
		x.plan, _ = x.addrPlan.PlanInto(x.plan[:0], x.addr, gdsGranularity,
			2*gdsGranularity, x.loadNodes, res.ToLoad)
	default:
		x.plan, _ = x.addrPlan.PlanInto(x.plan[:0], x.addr, eng.ds.Dev.SectorSize(),
			eng.opts.MaxJointRead, x.loadNodes, res.ToLoad)
	}
	plan := x.plan

	if err := x.runPlan(ctx, b, res, plan, &st); err != nil {
		eng.fb.Release(b.Nodes)
		PutReservation(res)
		return nil, st, err
	}

	// Re-examine the wait list: nodes another extractor was loading. If
	// that extractor failed, cancellation unblocks us here.
	if err := eng.fb.WaitValidCtx(ctx, res.Wait); err != nil {
		eng.fb.Release(b.Nodes)
		PutReservation(res)
		return nil, st, err
	}
	st.NodesExtracted = int64(len(res.ToLoad))
	st.BytesRead = PlanBytes(plan)
	st.BackendReads = int64(len(plan))
	st.BytesNeeded = int64(len(res.ToLoad)) * int64(featBytes)
	st.BytesReused = int64(len(b.Nodes)-len(res.ToLoad)) * int64(featBytes)
	return getTrainItem(b, res), st, nil
}

// runPlan issues the plan's reads and transfers: up to RingDepth reads in
// flight, and after each drain of completions one device transfer for
// every read it reaped, launched before the wave is topped up (phases 4
// and 5 of Fig. 4 overlap, at drain granularity). The SyncExtraction
// ablation is the same loop with one read in flight, the wait for it
// charged to the recorder as synchronous I/O wait — what a blocking read
// costs its thread, and what Figs. 3 and 11 plot.
//
// Fault tolerance: a read that completes with a transient error is
// resubmitted after a jittered exponential backoff, up to the per-op
// retry budget; anything else, a read the ring refuses to queue
// included, escalates as the plan's error. On error or cancellation
// every in-flight read is still drained so no staging extent leaks.
func (x *extractor) runPlan(ctx context.Context, b *sample.Batch, res *Reservation, plan []ReadOp, st *metrics.Counters) error {
	eng := x.eng
	depth := x.ring.Depth()
	if eng.opts.SyncExtraction {
		depth = 1
	}
	opExt, attempts := x.planScratch(len(plan))
	x.nxfer = 0
	x.xfersOut.Store(1)
	var firstErr error
	// Every in-flight read holds one IOGate permit from acquisition to
	// its true completion; retries keep theirs (the read never stopped
	// being in flight from the shared submit path's point of view).
	gate := eng.opts.IOGate
	release := func(n int) {
		if gate != nil {
			gate.Release(n)
		}
	}

	// submit stages op's read on its already-assigned staging extent:
	// direct, at the plan's sector alignment, unless BufferedIO asks for
	// exact-size buffered reads. Reads are bound to ctx so an injected
	// straggler delay cannot hold the teardown hostage for its full
	// modeled duration. Staged reads only reach the device at the wave's
	// ring.Flush — one batched submission (a single io_uring_enter on the
	// linuring backend) per wave instead of one kernel round trip per
	// read.
	submit := func(op int) error {
		sbuf := eng.staging.ExtentBuf(opExt[op])[:plan[op].Len]
		if eng.opts.BufferedIO {
			return x.ring.QueueBufferedReadCtx(ctx, sbuf, plan[op].DevOff, uint64(op))
		}
		return x.ring.QueueReadCtx(ctx, sbuf, plan[op].DevOff, uint64(op))
	}

	next := 0     // next op to submit for the first time
	inflight := 0 // reads currently owned by the device

	// reap handles one completion: a clean read is decoded and joins the
	// drain's transfer, which starts before the remaining loads finish; a
	// transient failure is staged again on the extent and permit it still
	// holds (the wave's next Flush publishes it); anything else escalates
	// as the plan's error.
	reap := func(cqe uring.CQE) {
		inflight--
		if eng.opts.SyncExtraction {
			eng.rec.AddIOWait(cqe.Latency)
		}
		op := int(cqe.User)
		ext := opExt[op]
		switch {
		case cqe.Err == nil:
			release(1)
			x.transferOp(b, res, plan[op], ext)
		case firstErr == nil && faults.Retryable(cqe.Err) && attempts[op] < retryBudget:
			attempts[op]++
			st.Retries++
			// Cancellation cuts the backoff short; the loop's ctx check
			// then stops further submissions.
			_ = errutil.Sleep(ctx, x.policy.Delay(attempts[op]))
			if err := submit(op); err != nil {
				eng.staging.ReleaseExtent(ext)
				release(1)
				firstErr = err
			} else {
				inflight++
			}
		default:
			eng.staging.ReleaseExtent(ext)
			release(1)
			if firstErr == nil {
				st.Escalations++
				firstErr = fmt.Errorf("extract: read [%d,%d) failed after %d attempts: %w",
					plan[op].DevOff, plan[op].DevOff+int64(plan[op].Len), attempts[op]+1, cqe.Err)
			}
		}
	}

	for {
		if firstErr == nil {
			if err := ctx.Err(); err != nil {
				firstErr = err
			}
		}
		// Submit while healthy, work remains, and the ring has room.
		for firstErr == nil && next < len(plan) && inflight < depth {
			// Fair-share gate first, staging extent second: blocking on
			// the gate while holding staging units would idle pool
			// capacity other tenants could use.
			if gate != nil && !gate.TryAcquire(1) {
				if inflight > 0 {
					break // a completion will return a permit
				}
				if err := gate.Acquire(ctx, 1); err != nil {
					firstErr = err
					break
				}
			}
			// The read takes the units its bytes fill, contiguous.
			units := eng.staging.UnitsFor(plan[next].Len)
			ext, ok := eng.staging.TryAcquireExtent(units)
			if !ok {
				if inflight > 0 {
					release(1)
					break // a completion will free units
				}
				var err error
				ext, err = eng.staging.AcquireExtentCtx(ctx, units)
				if err != nil {
					release(1)
					firstErr = err
					break
				}
			}
			opExt[next] = ext
			if err := submit(next); err != nil {
				eng.staging.ReleaseExtent(ext)
				release(1)
				firstErr = err
				break
			}
			next++
			inflight++
		}
		// Publish the whole wave — first-time reads and staged retries —
		// at once; without this, WaitCQE below would wait on reads the
		// device has not yet seen.
		x.ring.Flush()
		if inflight == 0 {
			if firstErr != nil || next >= len(plan) {
				break
			}
			continue
		}
		// Batch reap: block for one completion and take every other one
		// already in the CQ with it before topping the wave up, so a wave
		// of completions costs one submission and one device transfer
		// rather than one of each per read.
		x.cqes = x.ring.WaitCQEs(x.cqes[:0])
		for _, cqe := range x.cqes {
			reap(cqe)
		}
		x.launchXfer()
	}
	x.launchXfer() // an unlaunched record would never release its extents or mark its nodes valid
	if x.xfersOut.Add(-1) != 0 {
		<-x.xfersDone
	}
	return firstErr
}

// planScratch resizes the per-op bookkeeping slices for a new plan,
// reusing the extractor's backing arrays. attempts is per-batch state
// and starts zeroed.
func (x *extractor) planScratch(n int) (opExt []Extent, attempts []int) {
	if cap(x.opExt) < n {
		x.opExt = make([]Extent, n)
		x.attempts = make([]int, n)
	} else {
		x.opExt = x.opExt[:n]
		x.attempts = x.attempts[:n]
		clear(x.attempts)
	}
	return x.opExt, x.attempts
}

// xferRec is one modeled host-to-device DMA: the nodes that become valid
// and the staging extents that return to the pool when it completes. One
// record carries every clean read of one completion drain. Records
// belong to the extractor and go back on its free list as their
// transfers complete, rather than to a pool, where a record would
// re-grow its slices after every GC: an extractor keeps as many as it
// ever had transfers in flight at once. fn is bound once to run, so a
// launch allocates no closure.
type xferRec struct {
	x     *extractor
	nodes []int64
	exts  []Extent
	fn    func()
}

func (d *xferRec) run() {
	x := d.x
	x.eng.fb.markValid(d.nodes)
	for _, e := range d.exts {
		x.eng.staging.ReleaseExtent(e)
	}
	d.nodes, d.exts = d.nodes[:0], d.exts[:0]
	x.freeMu.Lock()
	x.free = append(x.free, d)
	x.freeMu.Unlock()
	if x.xfersOut.Add(-1) == 0 {
		x.xfersDone <- struct{}{}
	}
}

// pendingXfer returns the record the current drain fills: a free one, or
// a new one with room for a full ring's reads, the most one drain reaps,
// so a record's slices do not regrow read by read.
func (x *extractor) pendingXfer() *xferRec {
	if x.cur == nil {
		x.freeMu.Lock()
		if n := len(x.free); n > 0 {
			x.cur, x.free = x.free[n-1], x.free[:n-1]
		}
		x.freeMu.Unlock()
	}
	if x.cur == nil {
		depth := x.ring.Depth()
		x.cur = &xferRec{x: x, nodes: make([]int64, 0, 2*depth), exts: make([]Extent, 0, depth)}
		x.cur.fn = x.cur.run
	}
	return x.cur
}

// launchXfer sends the current drain's record, if it has one, to
// the device as one CopyAsync of all its nodes' bytes.
func (x *extractor) launchXfer() {
	d := x.cur
	if d == nil {
		return
	}
	x.cur = nil
	x.nxfer++
	x.xfersOut.Add(1)
	x.eng.dev.CopyAsync(int64(len(d.nodes))*x.eng.ds.FeatBytes(), d.fn)
}

// transferOp decodes the read's feature vectors into their feature-buffer
// slots. On a GPU the nodes and the staging extent join the drain's
// transfer record, which launchXfer sends as one modeled DMA; on
// completion the nodes become valid and the extents return to the pool.
// CPU-based training has no device transfer: data is already in host
// memory (§4.4).
func (x *extractor) transferOp(b *sample.Batch, res *Reservation, op ReadOp, ext Extent) {
	eng := x.eng
	featBytes := int(eng.ds.FeatBytes())
	buf := eng.staging.ExtentBuf(ext)
	for _, rn := range op.Nodes {
		dst := eng.fb.SlotData(res.Alias[rn.Pos])
		graph.DecodeFeature(buf[rn.BufOff:rn.BufOff+featBytes], dst[:0])
	}
	if !eng.opts.GPUDirect && eng.dev.Kind() == deviceGPUKind {
		// The completion runs after this batch's op.Nodes scratch may have
		// been reused, so the record keeps the node IDs themselves.
		d := x.pendingXfer()
		for _, rn := range op.Nodes {
			d.nodes = append(d.nodes, b.Nodes[rn.Pos])
		}
		d.exts = append(d.exts, ext)
		return
	}
	// GDS reads already landed in device memory; CPU training reads from
	// host memory directly. Either way there is no host-to-device phase.
	for _, rn := range op.Nodes {
		eng.fb.MarkValid(b.Nodes[rn.Pos])
	}
	eng.staging.ReleaseExtent(ext)
}
