// Package marius re-implements the MariusGNN baseline (Waleffe et al.,
// EuroSys'23; §2/§3/§5.4 of the GNNDrive paper): out-of-core training
// that splits the graph into partitions and trains on whatever subset of
// partitions is resident in a host-memory buffer.
//
// Reproduced properties:
//
//   - mandatory per-epoch data preparation: ordering the partition
//     sequence (a staging pass over the feature table on disk) and
//     preloading the initial buffer — long synchronous I/O before any
//     training (up to ~46% of epoch time in the paper);
//   - in-epoch I/O is limited to scheduled partition swaps, so the I/O
//     wait during training is low (Fig. 3(c));
//   - sampling only sees in-buffer nodes, the accuracy risk the paper
//     notes;
//   - memory: the partition buffer plus the preparation staging must fit
//     the host budget, and preparation stages a fixed fraction of the
//     feature table — this is where MAG240M OOMs even at 128 GB
//     (Table 2). The staging fraction models Marius's on-disk re-layout
//     of partitions into the training order.
package marius

import (
	"context"
	"fmt"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/tensor"
)

// PrepStagingFraction is the fraction of the on-disk feature table the
// preparation pass keeps resident in host memory while re-ordering
// partitions (the memory-pressure side of preparation; this is what OOMs
// on MAG240M even at 128 GB).
const PrepStagingFraction = 0.30

// prepRelayoutFraction is the fraction of the feature table the
// preparation pass reads and rewrites on disk to lay partitions out in
// the epoch's training order (the I/O side of preparation; the paper
// measures it at up to ~46% of epoch time).
const prepRelayoutFraction = 1.0

// partitions is the number of node partitions (contiguous ranges).
const partitions = 24

// computeFactor scales per-batch compute relative to the PyG-based
// systems: Marius's general-purpose DENSE engine is slower per batch (its
// 347s training vs GNNDrive's 241s full epoch in Table 2).
const computeFactor = 2.5

// System is a MariusGNN training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	rec    *metrics.Recorder
	knobs  core.Knobs

	partSize  int64 // nodes per partition (last may be short)
	partBytes int64 // feature+topology bytes per partition
	bufParts  int
	pinned    int64

	learn  *core.Learner
	closed bool
}

// New sizes the partition buffer against the host budget and verifies the
// preparation staging fits; OOM errors reproduce Table 2's failures.
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	rec *metrics.Recorder, knobs core.Knobs) (*System, error) {
	knobs = knobs.WithDefaults()
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, rec: rec, knobs: knobs}

	s.partSize = (ds.NumNodes + partitions - 1) / partitions
	featPart := s.partSize * ds.FeatBytes()
	topoPart := ds.NumEdges * 4 / partitions
	s.partBytes = featPart + topoPart

	// Preparation staging: a fixed fraction of the feature table is
	// resident while partitions are re-laid-out into the epoch order.
	prepStage := int64(PrepStagingFraction * float64(ds.Layout.FeaturesLen))
	meta := ds.IndptrBytes() + int64(len(ds.Labels))*4

	if err := budget.Pin("marius indptr+labels", meta); err != nil {
		return nil, err
	}
	s.pinned = meta

	// The buffer holds as many partitions as the budget leaves room for.
	bufParts := min(int((budget.Capacity()-meta-prepStage)/s.partBytes), partitions)
	if bufParts < 2 {
		s.Close()
		return nil, fmt.Errorf("marius: partition buffer needs >=2 partitions of %d bytes plus %d staging in %d budget: %w",
			s.partBytes, prepStage, budget.Capacity(), hostmem.ErrOOM)
	}
	s.bufParts = bufParts
	if err := budget.Pin("marius partition buffer", int64(bufParts)*s.partBytes); err != nil {
		s.Close()
		return nil, fmt.Errorf("marius: partition buffer: %w", err)
	}
	s.pinned += int64(bufParts) * s.partBytes

	// The preparation staging itself must also fit (transiently pinned
	// during prepare; verified up front so OOM surfaces at setup, as the
	// paper observed during data preparation).
	if err := budget.Pin("marius prep staging", prepStage); err != nil {
		s.Close()
		return nil, fmt.Errorf("marius: preparation staging: %w", err)
	}
	budget.Unpin(prepStage)

	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })
	s.learn = core.NewLearner(ds, dev, knobs)
	s.learn.WorkFactor = computeFactor
	return s, nil
}

// Model returns the real-training model (nil in modeled mode).
func (s *System) Model() *nn.Model { return s.learn.Model() }

// Close releases host pins.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.budget.Unpin(s.pinned)
}

// prepare runs the per-epoch data preparation: the partition-ordering
// staging pass (reads PrepStagingFraction of the feature table, writes it
// back re-ordered) and the initial buffer load. Returns the order of
// partitions for the epoch.
func (s *System) prepare(ctx context.Context, epoch int, col *metrics.BreakdownCollector) ([]int, error) {
	t0 := time.Now()
	// Re-layout pass: sequential read + write of the feature table into
	// the epoch's partition order.
	stage := int64(prepRelayoutFraction * float64(s.ds.Layout.FeaturesLen))
	const chunk = 1 << 20
	buf := storage.AlignedBuf(chunk, s.ds.Dev.SectorSize())
	for off := int64(0); off < stage; off += chunk {
		n := int64(chunk)
		if off+n > stage {
			n = stage - off
		}
		waited, err := s.ds.Dev.ReadAtCtx(ctx, buf[:n], s.ds.Layout.FeaturesOff+off)
		s.rec.AddIOWait(waited)
		if err != nil {
			return nil, fmt.Errorf("marius: prep read: %w", err)
		}
		// The re-ordered layout is written to the same region (the
		// on-disk copy Marius maintains).
		waited, err = s.ds.Dev.WriteSync(buf[:n], s.ds.Layout.FeaturesOff+off)
		s.rec.AddIOWait(waited)
		if err != nil {
			return nil, fmt.Errorf("marius: prep write: %w", err)
		}
	}
	// Partition order for the epoch (rotated so every partition leads
	// some epoch; the pairing schedule is BETA-like round-robin).
	order := make([]int, partitions)
	for i := range order {
		order[i] = (i + epoch) % partitions
	}
	// Initial buffer load.
	for i := 0; i < s.bufParts; i++ {
		if err := s.loadPartition(ctx, order[i]); err != nil {
			return nil, err
		}
	}
	col.AddPrep(time.Since(t0))
	return order, nil
}

// loadPartition reads one partition's features and topology sequentially.
func (s *System) loadPartition(ctx context.Context, p int) error {
	lo := int64(p) * s.partSize
	hi := lo + s.partSize
	if hi > s.ds.NumNodes {
		hi = s.ds.NumNodes
	}
	// Features. Marius's partition scan depends on node-ID-contiguous
	// rows: a packed layout scatters a partition's vectors across the
	// feature region, so the modeled sequential scan would read the wrong
	// bytes. Refuse explicitly rather than mis-model.
	featLo, ok := layout.ContiguousRange(s.ds.Addresser(), lo, hi)
	if !ok {
		return fmt.Errorf("marius: feature layout %T is not node-contiguous; MariusGNN requires the strided layout", s.ds.Addresser())
	}
	buf := storage.AlignedBuf(1<<20, s.ds.Dev.SectorSize())
	if err := s.readRange(ctx, buf, featLo, (hi-lo)*s.ds.FeatBytes()); err != nil {
		return fmt.Errorf("marius: partition %d features: %w", p, err)
	}
	// Topology slice of the partition's nodes.
	idxLo, idxHi := s.ds.Indptr[lo]*4, s.ds.Indptr[hi]*4
	if err := s.readRange(ctx, buf, s.ds.Layout.IndicesOff+idxLo, idxHi-idxLo); err != nil {
		return fmt.Errorf("marius: partition %d topology: %w", p, err)
	}
	return nil
}

// readRange reads the n bytes at off sequentially, len(buf) at a time.
func (s *System) readRange(ctx context.Context, buf []byte, off, n int64) error {
	for done := int64(0); done < n; done += int64(len(buf)) {
		waited, err := s.ds.Dev.ReadAtCtx(ctx, buf[:min(int64(len(buf)), n-done)], off+done)
		s.rec.AddIOWait(waited)
		if err != nil {
			return err
		}
	}
	return nil
}

// swapSchedule returns how many partition swaps an epoch of n batches
// makes and the batch interval between them (0 and 0 when every
// partition is resident). Covering all partition *pairs* with a
// c-partition buffer needs ~P^2/(2c) partition loads per epoch (the BETA
// bound), not P-c; this is where MariusGNN's in-epoch I/O goes.
func (s *System) swapSchedule(n int) (swaps, every int) {
	p, c := partitions, s.bufParts
	if c >= p {
		return 0, 0
	}
	swaps = max(p*p/(2*c)-c, p-c)
	return swaps, n/(swaps+1) + 1
}

// TrainEpoch prepares (ordering + preload) and then trains on in-buffer
// partitions, swapping per the schedule. Sampling sees only resident
// nodes. Cancelling ctx interrupts preparation's and the swaps' reads and
// stops training between mini-batches.
func (s *System) TrainEpoch(ctx context.Context, epoch int) (core.EpochResult, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	end := func(err error) (core.EpochResult, error) {
		return s.learn.EndEpoch(col.Snapshot(time.Since(start))), err
	}
	order, err := s.prepare(ctx, epoch, &col)
	if err != nil {
		return end(err)
	}

	resident := make(map[int]bool, s.bufParts)
	for i := 0; i < s.bufParts; i++ {
		resident[order[i]] = true
	}
	inBuf := func(v int64) bool { return resident[int(v/s.partSize)] }

	smp := sample.New(&residentReader{ds: s.ds, inBuf: inBuf}, s.knobs.Fanouts, tensor.NewRNG(s.knobs.Seed))
	plan := s.knobs.Plan(s.ds.TrainIdx, epoch)
	swapsLeft, swapEvery := s.swapSchedule(len(plan.Batches))
	nextIn := s.bufParts
	swaps := 0
	for bi, targets := range plan.Batches {
		if err := ctx.Err(); err != nil {
			return end(err)
		}
		// Scheduled partition swap (counted as training-time I/O; low
		// but nonzero, per Fig. 3(c)).
		if swapEvery > 0 && bi > 0 && bi%swapEvery == 0 && swaps < swapsLeft {
			tSwap := time.Now()
			victim := order[(nextIn-s.bufParts)%len(order)]
			delete(resident, victim)
			incoming := order[nextIn%len(order)]
			if err := s.loadPartition(ctx, incoming); err != nil {
				return end(err)
			}
			resident[incoming] = true
			nextIn++
			swaps++
			col.AddExtract(time.Since(tSwap))
		}

		// Train only on targets whose partition is resident.
		inTargets := targets[:0:0]
		for _, v := range targets {
			if inBuf(v) {
				inTargets = append(inTargets, v)
			}
		}
		if len(inTargets) == 0 {
			continue
		}
		t0 := time.Now()
		smp.Reseed(sample.BatchSeed(s.knobs.Seed, epoch, bi))
		b, _, err := smp.SampleBatch(bi, inTargets)
		if err != nil {
			return end(err)
		}
		col.AddSample(time.Since(t0))
		s.rec.AddCPU(time.Since(t0))

		// Extraction is memory-resident: free except the device copy.
		xferBytes := int64(len(b.Nodes)) * s.ds.FeatBytes()
		t1 := time.Now()
		if err := s.dev.Alloc("marius batch features", xferBytes); err != nil {
			return end(fmt.Errorf("marius: transfer: %w", err))
		}
		s.dev.CopySync(xferBytes)
		s.dev.Free(xferBytes)
		col.AddExtract(time.Since(t1))
		col.Add(metrics.Counters{BytesReused: xferBytes})

		t2 := time.Now()
		x := s.learn.Input(b)
		if x != nil {
			for i, v := range b.Nodes {
				if _, err := s.ds.ReadFeatureRaw(v, x.Row(i)[:0]); err != nil {
					return end(fmt.Errorf("marius: gather: %w", err))
				}
			}
		}
		s.learn.Step(b, x, nil)
		col.AddTrain(time.Since(t2))
		col.Add(metrics.Counters{Batches: 1})
	}
	return end(nil)
}

// residentReader samples in memory but only returns in-buffer neighbors
// (MariusGNN's accuracy-risking restriction).
type residentReader struct {
	ds    *graph.Dataset
	inBuf func(int64) bool
	raw   *graph.RawReader
}

// Neighbors filters the node's in-neighbors to resident partitions.
// In-memory partition data means no I/O wait.
func (r *residentReader) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	if r.raw == nil {
		r.raw = graph.NewRawReader(r.ds)
	}
	ns, _, err := r.raw.Neighbors(v, buf)
	if err != nil {
		return nil, 0, err
	}
	out := ns[:0]
	for _, u := range ns {
		if r.inBuf(int64(u)) {
			out = append(out, u)
		}
	}
	return out, 0, nil
}
