package core

import (
	"context"
	"sync/atomic"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/tensor"
)

// BenchmarkFeatureBufferReserveRelease measures the mapping-table hot
// path: reserve a mini-batch worth of nodes, validate, release.
func BenchmarkFeatureBufferReserveRelease(b *testing.B) {
	const nodes = 100000
	fb := NewFeatureBuffer(nodes, 128, 20000)
	batch := make([]int64, 2000)
	rng := uint64(7)
	for i := range batch {
		rng = rng*6364136223846793005 + 1442695040888963407
		batch[i] = int64(rng % nodes)
	}
	// Dedup.
	seen := map[int64]bool{}
	uniq := batch[:0]
	for _, v := range batch {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := fb.ReserveCtx(context.Background(), uniq)
		if err != nil {
			b.Fatal(err)
		}
		for _, pos := range res.ToLoad {
			fb.MarkValid(uniq[pos])
		}
		fb.Release(uniq)
	}
}

// BenchmarkReserveReleaseParallel measures the mapping-table hot path
// under extractor-style concurrency: each worker repeatedly reserves and
// releases its own already-buffered node set. The batches share no
// nodes, but every reserve and release takes the buffer's one lock:
// pure buffer work contending for it, a shape the engine never runs,
// where each batch also reads from disk. Parallelism is 4x GOMAXPROCS
// because that is how the engine deploys extractors: oversubscribed
// relative to cores, with most of them blocked in I/O at any instant,
// so the buffer sees many more concurrent reservations than there are
// running CPUs. Run with -cpu 1,2,4,8 to see scaling.
func BenchmarkReserveReleaseParallel(b *testing.B) {
	const (
		numNodes = 1 << 16
		slots    = 1 << 13
		batch    = 256
	)
	fb := NewFeatureBuffer(numNodes, 4, slots)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		id := int(ctr.Add(1) - 1)
		nodes := make([]int64, batch)
		for i := range nodes {
			nodes[i] = int64((id*batch + i) % (slots - batch))
		}
		// Warm: the first reservation loads, later ones purely reuse.
		res, err := fb.ReserveCtx(context.Background(), nodes)
		if err != nil {
			b.Error(err)
			return
		}
		for _, pos := range res.ToLoad {
			fb.MarkValid(nodes[pos])
		}
		fb.Release(nodes)
		for pb.Next() {
			r, err := fb.ReserveCtx(context.Background(), nodes)
			if err != nil {
				b.Error(err)
				return
			}
			for _, pos := range r.ToLoad {
				fb.MarkValid(nodes[pos])
			}
			fb.Release(nodes)
			PutReservation(r)
		}
	})
}

// BenchmarkEndToEndExtract runs whole extractBatch calls (reserve, plan,
// async ring reads, decode, mark valid, release) on concurrent extractors
// with a mix of worker-private and shared hot nodes. Run with
// -cpu 1,2,4,8 to see extractor scaling.
func BenchmarkEndToEndExtract(b *testing.B) {
	benchExtract(b, newRig(b, device.InstantConfig(), 256<<20))
}

// BenchmarkExtractBackends runs the same extract workload against each
// registered storage backend: the instant simulator and a real file.
// The file lands under TMPDIR, so run with TMPDIR=/dev/shm for a
// tmpfs measurement.
func BenchmarkExtractBackends(b *testing.B) {
	for _, backend := range []string{"sim", "file"} {
		b.Run(backend, func(b *testing.B) {
			benchExtract(b, newRigOn(b, device.InstantConfig(), 256<<20, backend))
		})
	}
}

// BenchmarkExtractBackendsCold is the miss-heavy shape recorded in
// EXPERIMENTS.md: a 60k-node dim-128 feature table (~30 MB) against a
// feature buffer pinned to 4096 slots, no hot set, and every extractor
// striding its own disjoint window across the whole node range — so
// nearly every reserve misses and the batch goes to disk as direct
// reads. This is where submission batching pays: ring depth 32 means a
// plan's reads land in the device as one io_uring_enter (linuring) or
// one worker hand-off per read (file). The linuring leg skips where the
// kernel refuses io_uring.
func BenchmarkExtractBackendsCold(b *testing.B) {
	for _, backend := range []string{"sim", "file", "linuring"} {
		b.Run(backend, func(b *testing.B) {
			if backend == "linuring" && !linuring.Supported() {
				b.Skip("io_uring unavailable on this system; skipping linuring leg")
			}
			spec := gen.Spec{Name: "bench-cold", Nodes: 60_000, EdgesPerNode: 4,
				Dim: 128, Classes: 8, Homophily: 0.6, Signal: 1.0,
				TrainFrac: 0.10, ValFrac: 0.02, Seed: 99}
			rig := newRigSpec(b, device.InstantConfig(), 256<<20, backend, spec)
			opts := testOpts()
			opts.Extractors = 4
			opts.RingDepth = 32
			opts.FeatureSlots = 4096
			e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			benchExtractCold(b, e)
		})
	}
}

// BenchmarkExtractLayoutsCold is the miss-heavy shape behind
// DESIGN.md §14.3's numbers: a 60k-node dim-100 table (400-byte vectors, so a
// feature does NOT fill a 512-byte sector and every isolated read pays
// alignment padding), replayed through the engine's real epoch-0 batch
// schedule against a 4096-slot feature buffer, once per feature layout. The
// packed legs first run the offline packer on that schedule's sample
// trace, so consecutive nodes of a batch sit adjacent on disk and the
// planner coalesces them into a handful of large reads; the strided
// legs issue the scattered node-ID-order reads the paper starts from.
// One op is one cold batch extract; reads/op and MB/op are the backend
// read count and bytes actually read per batch.
func BenchmarkExtractLayoutsCold(b *testing.B) {
	for _, backend := range []string{"file", "linuring"} {
		for _, lay := range []string{"strided", "packed"} {
			b.Run(backend+"/"+lay, func(b *testing.B) {
				if backend == "linuring" && !linuring.Supported() {
					b.Skip("io_uring unavailable on this system; skipping linuring leg")
				}
				spec := gen.Spec{Name: "bench-layout", Nodes: 60_000, EdgesPerNode: 4,
					Dim: 100, Classes: 8, Homophily: 0.6, Signal: 1.0,
					TrainFrac: 0.10, ValFrac: 0.02, Seed: 99}
				rig := newRigSpec(b, device.InstantConfig(), 256<<20, backend, spec)
				opts := testOpts()
				opts.Extractors = 1
				opts.RingDepth = 32
				opts.FeatureSlots = 4096
				batches := epochBatches(b, rig.ds, opts)
				if lay == "packed" {
					tr := layout.NewTrace()
					for _, bt := range batches {
						tr.AddBatch(bt.Nodes)
					}
					p, err := layout.PackInPlace(rig.ds.Dev, rig.ds.Layout.FeaturesOff,
						int(rig.ds.FeatBytes()), rig.ds.NumNodes, tr, layout.PackOptions{})
					if err != nil {
						b.Fatal(err)
					}
					rig.ds.Addr = p
				}
				e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				benchExtractTrace(b, e, batches)
			})
		}
	}
}

// epochBatches samples the engine's epoch-0 batch schedule offline, the
// same way gen.SampleTrace does, but keeps the full batches for replay.
func epochBatches(b *testing.B, ds *graph.Dataset, o Options) []*sample.Batch {
	b.Helper()
	plan := sample.NewPlan(ds.TrainIdx, o.BatchSize, tensor.NewRNG(sample.PlanSeed(o.Seed, 0)))
	smp := sample.New(graph.NewRawReader(ds), o.Fanouts, tensor.NewRNG(o.Seed))
	out := make([]*sample.Batch, 0, len(plan.Batches))
	for i, targets := range plan.Batches {
		smp.Reseed(sample.BatchSeed(o.Seed, 0, i))
		bt, _, err := smp.SampleBatch(i, targets)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, bt)
	}
	return out
}

// benchExtractTrace replays the batch schedule through extractBatch,
// cycling when b.N outruns it, and reports backend reads and read bytes
// per batch alongside the timing.
func benchExtractTrace(b *testing.B, e *Engine, batches []*sample.Batch) {
	x := newExtractor(e)
	var reads, bytesRead int64
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		bt := batches[i%len(batches)]
		item, st, err := x.extractBatch(context.Background(), bt)
		if err != nil {
			b.Fatal(err)
		}
		e.fb.Release(bt.Nodes)
		PutReservation(item.res)
		putTrainItem(item)
		reads += st.BackendReads
		bytesRead += st.BytesRead
		i++
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(bytesRead)/1e6/float64(b.N), "MB/op")
}

// benchExtractCold drives extractBatch with zero inter-batch locality:
// each worker's successive batches cover fresh nodes until the node
// range wraps, modelling the cold epoch start (and any epoch on a
// feature set far larger than the buffer).
func benchExtractCold(b *testing.B, e *Engine) {
	const batchNodes = 256
	numNodes := e.ds.NumNodes
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ctr.Add(1) - 1)
		x := newExtractor(e)
		nodes := make([]int64, batchNodes)
		bt := &sample.Batch{NumTargets: 1,
			Layers: []sample.Layer{{Src: []int32{0}, Dst: []int32{0}}}}
		// Workers start far apart and stride by a constant coprime-ish
		// jump so consecutive batches never overlap the buffer's 4096
		// live slots.
		next := int64(id) * (numNodes / 8)
		round := 0
		for pb.Next() {
			for i := range nodes {
				nodes[i] = next
				next += 3
				if next >= numNodes {
					next -= numNodes
				}
			}
			round++
			bt.ID = round
			bt.Nodes = nodes
			item, _, err := x.extractBatch(context.Background(), bt)
			if err != nil {
				b.Error(err)
				return
			}
			e.fb.Release(bt.Nodes)
			PutReservation(item.res)
			putTrainItem(item)
		}
	})
}

func benchExtract(b *testing.B, rig *testRig) {
	opts := testOpts()
	opts.Extractors = 8
	opts.RingDepth = 16
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const (
		privateNodes = 96
		hotNodes     = 32
		window       = 4096
	)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ctr.Add(1) - 1)
		x := newExtractor(e)
		nodes := make([]int64, 0, privateNodes+hotNodes)
		bt := &sample.Batch{NumTargets: 1,
			Layers: []sample.Layer{{Src: []int32{0}, Dst: []int32{0}}}}
		base := int64(1000 + id*window)
		round := int64(0)
		for pb.Next() {
			nodes = nodes[:0]
			off := base + (round*privateNodes)%window
			for i := int64(0); i < privateNodes; i++ {
				nodes = append(nodes, (off+i)%int64(e.ds.NumNodes))
			}
			for i := int64(0); i < hotNodes; i++ {
				nodes = append(nodes, i)
			}
			round++
			bt.ID = int(round)
			bt.Nodes = nodes
			item, _, err := x.extractBatch(context.Background(), bt)
			if err != nil {
				b.Error(err)
				return
			}
			e.fb.Release(bt.Nodes)
			// Recycle like the engine's trainer does.
			PutReservation(item.res)
			putTrainItem(item)
		}
	})
}

// BenchmarkBuildReadPlan measures the §4.4 joint-read planner on a
// realistic toLoad set, into a reused plan like the extractor's.
func BenchmarkBuildReadPlan(b *testing.B) {
	const n = 2000
	nodes := make([]int64, n)
	positions := make([]int32, n)
	rng := uint64(11)
	for i := range nodes {
		rng = rng*6364136223846793005 + 1442695040888963407
		nodes[i] = int64(rng % 111000)
		positions[i] = int32(i)
	}
	var plan []ReadOp
	b.ReportAllocs()
	for b.Loop() {
		plan = BuildReadPlanInto(plan[:0], 0, 512, 512, 16<<10, nodes, positions)
	}
}

// BenchmarkStagingAcquireRelease measures the staging slot pool.
func BenchmarkStagingAcquireRelease(b *testing.B) {
	budget := hostmem.NewBudget(1 << 30)
	s, err := NewStaging(budget, 256, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	for b.Loop() {
		slot, err := s.AcquireCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		s.Release(slot)
	}
}
