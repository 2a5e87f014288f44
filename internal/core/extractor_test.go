package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/faults"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/storagetest"
)

// buildBatchOf builds a fake sampled batch over the given node IDs.
func buildBatchOf(id int, nodes ...int64) *sample.Batch {
	return &sample.Batch{ID: id, Nodes: nodes, NumTargets: 1,
		Layers: []sample.Layer{{Src: []int32{0}, Dst: []int32{0}}}}
}

// newExtractorEngine builds an engine sized for direct extractor tests.
func newExtractorEngine(t *testing.T) *Engine {
	t.Helper()
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.Extractors = 2
	opts.RingDepth = 8
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestExtractBatchLoadsCorrectFeatures(t *testing.T) {
	e := newExtractorEngine(t)
	x := newExtractor(e)
	nodes := []int64{3, 77, 1500, 42}
	item, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesRead == 0 || st.BytesReused != 0 {
		t.Fatalf("read=%d reused=%d", st.BytesRead, st.BytesReused)
	}
	for i, v := range nodes {
		if !e.fb.Valid(v) {
			t.Fatalf("node %d not valid after extraction", v)
		}
		got := e.fb.SlotData(item.res.Alias[i])
		want, err := e.ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d dim %d: %v != %v", v, j, got[j], want[j])
			}
		}
	}
	e.fb.Release(nodes)
}

func TestExtractBatchReusesSecondTime(t *testing.T) {
	e := newExtractorEngine(t)
	x := newExtractor(e)
	nodes := []int64{10, 11, 12}
	item1, st1, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err != nil {
		t.Fatal(err)
	}
	e.fb.Release(item1.batch.Nodes)
	_, st2, err := x.extractBatch(context.Background(), buildBatchOf(1, nodes...))
	if err != nil {
		t.Fatal(err)
	}
	if st1.BytesRead == 0 {
		t.Fatal("first extraction read nothing")
	}
	if st2.BytesRead != 0 || st2.BytesReused != int64(len(nodes))*e.ds.FeatBytes() {
		t.Fatalf("second extraction: read=%d reused=%d", st2.BytesRead, st2.BytesReused)
	}
}

func TestConcurrentExtractorsShareNodes(t *testing.T) {
	e := newExtractorEngine(t)
	shared := []int64{100, 101, 102, 103}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := newExtractor(e)
			for r := 0; r < 10; r++ {
				item, _, err := x.extractBatch(context.Background(), buildBatchOf(w*100+r, shared...))
				if err != nil {
					errs <- err
					return
				}
				// All nodes must be valid and aliased consistently.
				for i, v := range shared {
					if !e.fb.Valid(v) {
						errs <- errNotValid(v)
						return
					}
					_ = item.res.Alias[i]
				}
				e.fb.Release(shared)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := e.fb.Stats()
	if st.Loads >= 40*4 {
		t.Fatalf("every extraction loaded from disk (%d loads): sharing broken", st.Loads)
	}
	if st.ReuseHits == 0 && st.SharedWaits == 0 {
		t.Fatal("no reuse or sharing recorded")
	}
}

type errNotValid int64

func (e errNotValid) Error() string { return "node not valid after extraction" }

func TestSyncAndAsyncExtractionAgree(t *testing.T) {
	nodes := []int64{5, 500, 1999, 7}
	run := func(syncMode bool) []float32 {
		rig := newRig(t, device.InstantConfig(), 64<<20)
		opts := testOpts()
		opts.SyncExtraction = syncMode
		e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		x := newExtractor(e)
		item, _, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
		if err != nil {
			t.Fatal(err)
		}
		var out []float32
		for i := range nodes {
			out = append(out, e.fb.SlotData(item.res.Alias[i])...)
		}
		return out
	}
	a, s := run(false), run(true)
	if len(a) != len(s) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != s[i] {
			t.Fatalf("sync/async disagree at %d: %v vs %v", i, a[i], s[i])
		}
	}
}

// TestSyncExtractionIsTheSameLoopAtDepthOne pins what the SyncExtraction
// ablation is: runPlan with one read in flight, the wait for each read
// charged to the recorder as synchronous I/O wait. The asynchronous path
// overlaps reads and charges none.
func TestSyncExtractionIsTheSameLoopAtDepthOne(t *testing.T) {
	nodes := make([]int64, 0, 64)
	for v := int64(0); v < 64; v++ {
		nodes = append(nodes, v*29)
	}
	run := func(syncMode bool) (maxInFlight int, ioWait time.Duration) {
		rig := newRig(t, device.InstantConfig(), 64<<20)
		opts := testOpts()
		opts.SyncExtraction = syncMode
		g := newBoundedGate(1 << 10)
		opts.IOGate = g
		e := newEngine(t, rig, opts)
		if _, _, err := newExtractor(e).extractBatch(context.Background(), buildBatchOf(0, nodes...)); err != nil {
			t.Fatal(err)
		}
		return g.maxOut, rig.rec.IOWait()
	}
	if inflight, wait := run(true); inflight != 1 || wait <= 0 {
		t.Fatalf("sync: %d reads in flight (want 1), I/O wait %v (want > 0)", inflight, wait)
	}
	if inflight, wait := run(false); inflight <= 1 || wait != 0 {
		t.Fatalf("async: %d reads in flight (want > 1), I/O wait %v (want 0)", inflight, wait)
	}
}

func TestBufferedExtractionMatchesDirect(t *testing.T) {
	nodes := []int64{8, 800, 1600}
	run := func(buffered bool) []float32 {
		rig := newRig(t, device.InstantConfig(), 64<<20)
		opts := testOpts()
		opts.BufferedIO = buffered
		e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		x := newExtractor(e)
		item, _, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
		if err != nil {
			t.Fatal(err)
		}
		var out []float32
		for i := range nodes {
			out = append(out, e.fb.SlotData(item.res.Alias[i])...)
		}
		return out
	}
	d, b := run(false), run(true)
	for i := range d {
		if d[i] != b[i] {
			t.Fatalf("buffered/direct disagree at %d", i)
		}
	}
}

// batchCountingBackend wraps a backend and counts how the extractor
// submits to it: whole plans must arrive through SubmitBatch (one batch
// per submission wave — a single io_uring_enter on the ring backend),
// never as per-read Submit calls.
type batchCountingBackend struct {
	storage.Backend
	batches    atomic.Int64
	batchedOps atomic.Int64
	singles    atomic.Int64
}

func (b *batchCountingBackend) Submit(req *storage.Request) {
	b.singles.Add(1)
	b.Backend.Submit(req)
}

func (b *batchCountingBackend) SubmitBatch(reqs []*storage.Request) {
	b.batches.Add(1)
	b.batchedOps.Add(int64(len(reqs)))
	for _, r := range reqs {
		b.Backend.Submit(r)
	}
}

// A read plan that fits the ring depth must reach the backend as exactly
// one batch: the extractor queues the whole wave and flushes once.
func TestExtractPlanSubmitsOneBatch(t *testing.T) {
	e := newExtractorEngine(t)
	counter := &batchCountingBackend{Backend: e.ds.Dev}
	e.ds.Dev = counter
	x := newExtractor(e)
	nodes := []int64{3, 77, 1500, 42}
	item, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err != nil {
		t.Fatal(err)
	}
	_ = item
	if st.BytesRead == 0 {
		t.Fatal("extraction read nothing")
	}
	if got := counter.batches.Load(); got != 1 {
		t.Fatalf("plan reached the backend in %d batches, want 1", got)
	}
	if got := counter.singles.Load(); got != 0 {
		t.Fatalf("%d reads bypassed the batched path", got)
	}
	if got := counter.batchedOps.Load(); got == 0 {
		t.Fatal("batched submission carried no reads")
	}
	if got := x.ring.Flushes(); got != 1 {
		t.Fatalf("ring flushed %d times, want 1", got)
	}
	e.fb.Release(nodes)
}

// inlineBackend completes every read on the submitter's goroutine before
// Submit returns — the limit case of a fast device, where a whole wave's
// completions are already in the CQ when the extractor first looks.
type inlineBackend struct{ storage.Backend }

func (b inlineBackend) Submit(req *storage.Request) {
	req.Err = b.Backend.ReadRaw(req.Buf, req.Off)
	req.Done(req)
}

// sparseNodes spaces nodes so that the planner joins none of them: node
// windows stride·f bytes apart leave at least stride·f − f − 2(sector−1)
// bytes between their sector-aligned ends, which a stride of
// (joinGap + 2·sector)/f + 2 puts past joinGap. One read per node keeps a
// plan over tiny's 2 000 nodes ≫ the ring depth.
func sparseNodes(e *Engine) []int64 {
	stride := int64(joinGap+2*e.ds.Dev.SectorSize())/e.ds.FeatBytes() + 2
	var nodes []int64
	for v := int64(0); v < e.ds.NumNodes; v += stride {
		nodes = append(nodes, v)
	}
	return nodes
}

// With every completion of a wave available at once, the extractor must
// reap them all before topping up: a plan of N reads costs ⌈N/depth⌉
// flushes, not one per read after the first wave.
func TestRunPlanReapsInBatches(t *testing.T) {
	cfg := device.InstantConfig()
	cfg.Kind = device.CPU // no async device transfer: a reaped read frees its staging slot at once
	rig := newRig(t, cfg, 64<<20)
	opts := testOpts()
	opts.RingDepth = 8
	e := newEngine(t, rig, opts)
	e.ds.Dev = inlineBackend{e.ds.Dev}
	x := newExtractor(e)
	nodes := sparseNodes(e)
	_, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
	if err != nil {
		t.Fatal(err)
	}
	defer e.fb.Release(nodes)
	depth := int64(x.ring.Depth())
	if st.BackendReads != int64(len(nodes)) {
		t.Fatalf("%d reads for %d sparse nodes: the planner joined some", st.BackendReads, len(nodes))
	}
	if st.BackendReads < 4*depth {
		t.Fatalf("plan of %d reads is not ≫ ring depth %d", st.BackendReads, depth)
	}
	want := (st.BackendReads + depth - 1) / depth
	if got := x.ring.Flushes(); got != want {
		t.Fatalf("%d reads at depth %d took %d flushes, want %d (one per wave)", st.BackendReads, depth, got, want)
	}
	for _, v := range nodes {
		if !e.fb.Valid(v) {
			t.Fatalf("node %d not valid after extraction", v)
		}
	}
}

// failNthBackend is inlineBackend failing its nth read with a media error
// (not retryable). Submit runs on the extractor's goroutine only.
type failNthBackend struct {
	storage.Backend
	n, seen int
}

func (b *failNthBackend) Submit(req *storage.Request) {
	b.seen++
	if b.seen == b.n {
		req.Err = faults.ErrMedia
	} else {
		req.Err = b.Backend.ReadRaw(req.Buf, req.Off)
	}
	req.Done(req)
}

// On TestRunPlanReapsInBatches' plan (sparseNodes: 48 reads at depth 8)
// a GPU engine launches one device transfer per completion
// drain, not one per read, moves exactly the bytes the per-read
// transfers moved, and gets every staging slot and feature-buffer
// reference back — also when a read escalates mid-plan.
func TestRunPlanTransfersPerDrain(t *testing.T) {
	setup := func(t *testing.T, wrap func(storage.Backend) storage.Backend) (*testRig, *Engine, *extractor, []int64) {
		rig := newRig(t, device.InstantConfig(), 64<<20)
		opts := testOpts()
		opts.RingDepth = 8
		e := newEngine(t, rig, opts)
		e.ds.Dev = wrap(e.ds.Dev)
		return rig, e, newExtractor(e), sparseNodes(e)
	}

	t.Run("clean", func(t *testing.T) {
		rig, e, x, nodes := setup(t, func(b storage.Backend) storage.Backend { return inlineBackend{b} })
		moved := rig.dev.BytesMoved()
		_, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
		if err != nil {
			t.Fatal(err)
		}
		// With inline completions every flushed wave is reaped by exactly
		// one drain.
		drains := x.ring.Flushes()
		t.Logf("%d reads, %d drains, %d transfers", st.BackendReads, drains, x.nxfer)
		if st.BackendReads < 4*int64(x.ring.Depth()) {
			t.Fatalf("plan of %d reads is not ≫ ring depth %d", st.BackendReads, x.ring.Depth())
		}
		if x.nxfer == 0 || int64(x.nxfer) > drains {
			t.Fatalf("%d device transfers for %d completion drains, want 1..%d", x.nxfer, drains, drains)
		}
		var perRead int64 // what one CopyAsync per read moved, summed
		for _, op := range x.plan {
			perRead += int64(len(op.Nodes)) * e.ds.FeatBytes()
		}
		if got := rig.dev.BytesMoved() - moved; got != perRead {
			t.Fatalf("transfers moved %d bytes, per-read transfers move %d", got, perRead)
		}
		for _, v := range nodes {
			if !e.fb.Valid(v) {
				t.Fatalf("node %d not valid after extraction", v)
			}
		}
		e.fb.Release(nodes)
		checkNoLeaks(t, e)
	})

	t.Run("escalation", func(t *testing.T) {
		fail := &failNthBackend{}
		_, e, x, nodes := setup(t, func(b storage.Backend) storage.Backend { fail.Backend = b; return fail })
		fail.n = len(nodes) / 2 // one read per node: the failure lands mid-plan
		_, st, err := x.extractBatch(context.Background(), buildBatchOf(0, nodes...))
		if !errors.Is(err, faults.ErrMedia) {
			t.Fatalf("error %v, want read %d's media error", err, fail.n)
		}
		if st.Escalations != 1 {
			t.Fatalf("%d escalations, want 1", st.Escalations)
		}
		if x.nxfer == 0 {
			t.Fatal("the reads before the failure launched no transfer")
		}
		checkNoLeaks(t, e)
	})
}

func TestBuildExactPlanOneReadPerNode(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	var ap AddrPlanner
	plan := ap.exactInto(nil, rig.ds.Addresser(), []int64{9, 4}, []int32{0, 1})
	if len(plan) != 2 {
		t.Fatalf("%d ops", len(plan))
	}
	for i, op := range plan {
		if op.Len != int(rig.ds.FeatBytes()) || len(op.Nodes) != 1 || op.Nodes[0].BufOff != 0 {
			t.Fatalf("op %d: %+v", i, op)
		}
	}
	// One read per node in the order given — exact mode does not sort.
	featOff := func(v int64) int64 { return rig.ds.Layout.FeaturesOff + v*rig.ds.FeatBytes() }
	if plan[0].DevOff != featOff(9) || plan[1].DevOff != featOff(4) {
		t.Fatalf("offsets %d, %d", plan[0].DevOff, plan[1].DevOff)
	}
}

// TestExtractBatchZeroAlloc pins the steady extract cycle at zero
// allocations: batches that cycle over twice the feature buffer, so each
// reserves hits, misses and evictions, reads its misses, copies them to
// the device, and is released and recycled as the release stage does.
func TestExtractBatchZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		window = 512 // nodes the batches cycle over: twice the buffer
		batch  = 32
		stride = 24 // consecutive batches share batch-stride nodes
	)
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.BatchSize, opts.Fanouts = 8, []int{2, 2} // a small Mb, so the buffer can be small
	opts.FeatureSlots = window / 2
	e := newEngine(t, rig, opts)
	x := newExtractor(e)
	ctx := context.Background()
	b := buildBatchOf(0, make([]int64, batch)...)
	turn, reads := 0, int64(0)
	cycle := func() {
		for i := range b.Nodes {
			b.Nodes[i] = int64((turn*stride+i)%window) * 3
		}
		turn++
		item, st, err := x.extractBatch(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		reads += st.BackendReads
		e.fb.Release(b.Nodes)
		PutReservation(item.res)
		putTrainItem(item)
	}
	for range 2 * window / stride {
		cycle() // grow every scratch slice and pool
	}
	reads = 0
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady extract cycle allocates %v times, want 0", n)
	}
	if reads == 0 {
		t.Fatal("the steady cycles read nothing: the pin covers no transfer")
	}
}
