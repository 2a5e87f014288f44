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
	"fmt"
	"time"

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

// Options configures the MariusGNN baseline.
type Options struct {
	Model  nn.ModelKind
	Hidden int
	Layers int

	BatchSize int
	Fanouts   []int

	// Partitions is the number of node partitions (contiguous ranges).
	Partitions int
	// ComputeFactor scales per-batch compute relative to the PyG-based
	// systems: Marius's general-purpose DENSE engine is slower per batch
	// (its 347s training vs GNNDrive's 241s full epoch in Table 2).
	ComputeFactor float64
	// BufferPartitions caps how many partitions stay resident; 0 sizes
	// it to what the host budget allows (at least 2).
	BufferPartitions int

	Shuffle   bool
	RealTrain bool
	LR        float32
	Seed      uint64
}

// DefaultOptions mirrors the paper's MariusGNN configuration at our scale.
func DefaultOptions(model nn.ModelKind) Options {
	fan := []int{3, 3, 3}
	if model == nn.GAT {
		fan = []int{3, 3, 2}
	}
	return Options{
		Model: model, Hidden: 256, Layers: 3,
		BatchSize: 50, Fanouts: fan,
		Partitions: 24, ComputeFactor: 2.5,
		Shuffle: true, LR: 0.003, Seed: 1,
	}
}

// System is a MariusGNN training instance.
type System struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	rec    *metrics.Recorder
	opts   Options

	partSize  int64 // nodes per partition (last may be short)
	partBytes int64 // feature+topology bytes per partition
	bufParts  int
	pinned    int64

	model  *nn.Model
	optim  *nn.Adam
	closed bool
}

// New sizes the partition buffer against the host budget and verifies the
// preparation staging fits; OOM errors reproduce Table 2's failures.
func New(ds *graph.Dataset, dev *device.Device, budget *hostmem.Budget,
	rec *metrics.Recorder, opts Options) (*System, error) {
	d := DefaultOptions(opts.Model)
	if opts.BatchSize == 0 {
		opts.BatchSize = d.BatchSize
	}
	if len(opts.Fanouts) == 0 {
		opts.Fanouts = d.Fanouts
	}
	if opts.Hidden == 0 {
		opts.Hidden = d.Hidden
	}
	if opts.Layers == 0 {
		opts.Layers = d.Layers
	}
	if opts.Partitions == 0 {
		opts.Partitions = d.Partitions
	}
	if opts.ComputeFactor == 0 {
		opts.ComputeFactor = d.ComputeFactor
	}
	if opts.LR == 0 {
		opts.LR = d.LR
	}
	if opts.Seed == 0 {
		opts.Seed = d.Seed
	}
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	s := &System{ds: ds, dev: dev, budget: budget, rec: rec, opts: opts}

	s.partSize = (ds.NumNodes + int64(opts.Partitions) - 1) / int64(opts.Partitions)
	featPart := s.partSize * ds.FeatBytes()
	topoPart := ds.NumEdges * 4 / int64(opts.Partitions)
	s.partBytes = featPart + topoPart

	// Preparation staging: a fixed fraction of the feature table is
	// resident while partitions are re-laid-out into the epoch order.
	prepStage := int64(PrepStagingFraction * float64(ds.Layout.FeaturesLen))
	meta := ds.IndptrBytes() + int64(len(ds.Labels))*4

	if err := budget.Pin("marius indptr+labels", meta); err != nil {
		return nil, err
	}
	s.pinned = meta

	bufParts := opts.BufferPartitions
	if bufParts == 0 {
		avail := budget.Capacity() - meta - prepStage
		bufParts = int(avail / s.partBytes)
		if bufParts > opts.Partitions {
			bufParts = opts.Partitions
		}
	}
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
	// during Prepare; verified up front so OOM surfaces at setup, as the
	// paper observed during data preparation).
	if err := budget.Pin("marius prep staging", prepStage); err != nil {
		s.Close()
		return nil, fmt.Errorf("marius: preparation staging: %w", err)
	}
	budget.Unpin(prepStage)

	rec.SetGPUProvider(func() int64 { return int64(dev.ComputeBusy()) })
	if opts.RealTrain {
		cfg := nn.Config{Kind: opts.Model, InDim: ds.Dim, Hidden: opts.Hidden,
			Classes: ds.NumClasses, Layers: opts.Layers}
		s.model = nn.NewModel(cfg, tensor.NewRNG(opts.Seed*7919))
		s.optim = nn.NewAdam(opts.LR)
	}
	return s, nil
}

// BufferPartitions reports how many partitions stay resident.
func (s *System) BufferPartitions() int { return s.bufParts }

// Model returns the real-training model (nil in modeled mode).
func (s *System) Model() *nn.Model { return s.model }

// Close releases host pins.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.budget.Unpin(s.pinned)
	s.pinned = 0
}

// Result reports one epoch including the preparation phase.
type Result struct {
	metrics.Breakdown
	Loss, Acc float64
	Swaps     int
}

// Prepare runs the per-epoch data preparation: the partition-ordering
// staging pass (reads PrepStagingFraction of the feature table, writes it
// back re-ordered) and the initial buffer load. Returns the order of
// partitions for the epoch.
func (s *System) Prepare(epoch int, col *metrics.BreakdownCollector) ([]int, error) {
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
		waited, err := s.ds.Dev.ReadAt(buf[:n], s.ds.Layout.FeaturesOff+off)
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
	order := make([]int, s.opts.Partitions)
	for i := range order {
		order[i] = (i + epoch) % s.opts.Partitions
	}
	// Initial buffer load.
	for i := 0; i < s.bufParts; i++ {
		if err := s.loadPartition(order[i]); err != nil {
			return nil, err
		}
	}
	col.AddPrep(time.Since(t0))
	return order, nil
}

// loadPartition reads one partition's features and topology sequentially.
func (s *System) loadPartition(p int) error {
	lo := int64(p) * s.partSize
	hi := lo + s.partSize
	if hi > s.ds.NumNodes {
		hi = s.ds.NumNodes
	}
	// Features. Marius's partition scan depends on node-ID-contiguous
	// rows: a packed layout scatters a partition's vectors across
	// segments, so the modeled sequential scan would read the wrong
	// bytes. Refuse explicitly rather than mis-model.
	featLo, ok := layout.ContiguousRange(s.ds.Addresser(), lo, hi)
	if !ok {
		return fmt.Errorf("marius: feature layout %T is not node-contiguous; MariusGNN requires the strided layout", s.ds.Addresser())
	}
	featBytes := (hi - lo) * s.ds.FeatBytes()
	const chunk = 1 << 20
	buf := storage.AlignedBuf(chunk, s.ds.Dev.SectorSize())
	for off := int64(0); off < featBytes; off += chunk {
		n := int64(chunk)
		if off+n > featBytes {
			n = featBytes - off
		}
		waited, err := s.ds.Dev.ReadAt(buf[:n], featLo+off)
		s.rec.AddIOWait(waited)
		if err != nil {
			return fmt.Errorf("marius: partition %d features: %w", p, err)
		}
	}
	// Topology slice of the partition's nodes.
	idxLo := s.ds.Indptr[lo] * 4
	idxHi := s.ds.Indptr[hi] * 4
	for off := idxLo; off < idxHi; off += chunk {
		n := int64(chunk)
		if off+n > idxHi {
			n = idxHi - off
		}
		waited, err := s.ds.Dev.ReadAt(buf[:n], s.ds.Layout.IndicesOff+off)
		s.rec.AddIOWait(waited)
		if err != nil {
			return fmt.Errorf("marius: partition %d topology: %w", p, err)
		}
	}
	return nil
}

// TrainEpoch prepares (ordering + preload) and then trains on in-buffer
// partitions, swapping per the schedule. Sampling sees only resident
// nodes.
func (s *System) TrainEpoch(epoch int) (Result, error) {
	var col metrics.BreakdownCollector
	start := time.Now()
	order, err := s.Prepare(epoch, &col)
	if err != nil {
		return Result{Breakdown: col.Snapshot(time.Since(start))}, err
	}

	resident := make(map[int]bool, s.bufParts)
	for i := 0; i < s.bufParts; i++ {
		resident[order[i]] = true
	}
	inBuf := func(v int64) bool { return resident[int(v/s.partSize)] }

	smp := sample.New(&residentReader{ds: s.ds, inBuf: inBuf}, s.opts.Fanouts,
		tensor.NewRNG(s.opts.Seed+uint64(epoch)*1000))

	var planRNG *tensor.RNG
	if s.opts.Shuffle {
		planRNG = tensor.NewRNG(s.opts.Seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	}
	plan := sample.NewPlan(s.ds.TrainIdx, s.opts.BatchSize, planRNG)

	// Swap schedule: covering all partition *pairs* with a c-partition
	// buffer needs ~P^2/(2c) partition loads per epoch (the BETA bound),
	// not P-c; this is where MariusGNN's in-epoch I/O goes.
	swapsLeft := 0
	if s.bufParts < s.opts.Partitions {
		p := s.opts.Partitions
		swapsLeft = p*p/(2*s.bufParts) - s.bufParts
		if min := p - s.bufParts; swapsLeft < min {
			swapsLeft = min
		}
	}
	swapEvery := 0
	if swapsLeft > 0 {
		swapEvery = len(plan.Batches)/(swapsLeft+1) + 1
	}
	nextIn := s.bufParts

	var lossSum, accSum float64
	swaps := 0
	var firstErr error
	for bi, targets := range plan.Batches {
		// Scheduled partition swap (counted as training-time I/O; low
		// but nonzero, per Fig. 3(c)).
		if swapEvery > 0 && bi > 0 && bi%swapEvery == 0 && swaps < swapsLeft {
			tSwap := time.Now()
			victim := order[(nextIn-s.bufParts)%len(order)]
			delete(resident, victim)
			incoming := order[nextIn%len(order)]
			if err := s.loadPartition(incoming); err != nil {
				return Result{Breakdown: col.Snapshot(time.Since(start))}, err
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
		b, _, err := smp.SampleBatch(bi, inTargets)
		if err != nil {
			firstErr = err
			break
		}
		col.AddSample(time.Since(t0))
		s.rec.AddCPU(time.Since(t0))

		// Extraction is memory-resident: free except the device copy.
		xferBytes := int64(len(b.Nodes)) * s.ds.FeatBytes()
		t1 := time.Now()
		if err := s.dev.Alloc("marius batch features", xferBytes); err != nil {
			firstErr = fmt.Errorf("marius: transfer: %w", err)
			break
		}
		s.dev.CopySync(xferBytes)
		s.dev.Free(xferBytes)
		col.AddExtract(time.Since(t1))
		col.Add(metrics.Counters{BytesReused: xferBytes})

		t2 := time.Now()
		if s.opts.RealTrain {
			x := tensor.New(len(b.Nodes), s.ds.Dim)
			for i, v := range b.Nodes {
				s.ds.ReadFeatureRaw(v, x.Row(i)[:0])
			}
			labels := make([]int32, b.NumTargets)
			for i := 0; i < b.NumTargets; i++ {
				labels[i] = s.ds.Labels[b.Nodes[i]]
			}
			l, a := s.model.Loss(b, x, labels)
			s.optim.Step(s.model.Params())
			lossSum += float64(l)
			accSum += a
			s.dev.AddComputeBusy(time.Since(t2))
		} else {
			s.dev.Compute(device.Work{
				Model: s.opts.Model,
				Nodes: int64(float64(len(b.Nodes)) * s.opts.ComputeFactor),
				Edges: int64(float64(b.NumEdges()) * s.opts.ComputeFactor),
				InDim: s.ds.Dim, Hidden: s.opts.Hidden, Classes: s.ds.NumClasses,
				Layers: s.opts.Layers, Backward: true,
			})
		}
		col.AddTrain(time.Since(t2))
		col.Add(metrics.Counters{Batches: 1})
	}
	res := Result{Breakdown: col.Snapshot(time.Since(start)), Swaps: swaps}
	if res.Batches > 0 && s.opts.RealTrain {
		res.Loss = lossSum / float64(res.Batches)
		res.Acc = accSum / float64(res.Batches)
	}
	return res, firstErr
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
