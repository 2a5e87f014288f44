package core

import (
	"time"

	"gnndrive/internal/device"
	"gnndrive/internal/graph"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// Knobs are the model and mini-batch settings every system shares. The
// paper compares GNNDrive with its baselines on the same model trained on
// the same mini-batches, so core.Options and each baseline's Options
// embed this one declaration. Zero fields take DefaultKnobs' values.
type Knobs struct {
	Model  nn.ModelKind
	Hidden int
	Layers int

	BatchSize int
	Fanouts   []int

	// RealTrain runs actual float32 training math (convergence
	// experiments); otherwise the train step uses the device time model.
	RealTrain bool
	LR        float32

	Seed uint64
}

// DefaultKnobs returns the paper's empirical configuration (§5) at our
// scale.
func DefaultKnobs(model nn.ModelKind) Knobs {
	// The paper uses batch 1,000 and fanouts (10,10,10) / (10,10,5) on
	// graphs of 41-122M nodes. At 1:1000 graph scale a sampled batch
	// cannot shrink 1000x (fanout products don't scale), so batch 50 and
	// fanouts (3,3,3) / (3,3,2) are chosen to preserve the ratio the
	// experiments actually exercise: sampled-batch bytes vs device and
	// host memory (~10% of device memory at dim 128, as in the paper).
	fan := []int{3, 3, 3}
	if model == nn.GAT {
		fan = []int{3, 3, 2}
	}
	return Knobs{Model: model, Hidden: 256, Layers: 3, BatchSize: 50, Fanouts: fan, LR: 0.003, Seed: 1}
}

// WithDefaults returns k with its zero fields set from DefaultKnobs.
func (k Knobs) WithDefaults() Knobs {
	d := DefaultKnobs(k.Model)
	if k.Hidden == 0 {
		k.Hidden = d.Hidden
	}
	if k.Layers == 0 {
		k.Layers = d.Layers
	}
	if k.BatchSize == 0 {
		k.BatchSize = d.BatchSize
	}
	if len(k.Fanouts) == 0 {
		k.Fanouts = d.Fanouts
	}
	if k.LR == 0 {
		k.LR = d.LR
	}
	if k.Seed == 0 {
		k.Seed = d.Seed
	}
	return k
}

// Plan is epoch's mini-batch schedule over targets: shuffled from
// PlanSeed(Seed, epoch), then cut into BatchSize chunks.
func (k Knobs) Plan(targets []int64, epoch int) *sample.Plan {
	return sample.NewPlan(targets, k.BatchSize, tensor.NewRNG(sample.PlanSeed(k.Seed, epoch)))
}

// Learner is the train step every system shares. In real training it owns
// the model, its Adam optimizer, the input and label scratch one step
// needs, and the epoch's loss record; otherwise it charges the modeled
// device for the batch's work. Not safe for concurrent use: each system
// has one trainer.
type Learner struct {
	ds     *graph.Dataset
	dev    *device.Device
	k      Knobs
	model  *nn.Model
	opt    *nn.Adam
	x      *tensor.Matrix
	labels []int32

	// The epoch's loss record: every real step's loss in step order, and
	// the loss and accuracy sums EndEpoch averages.
	losses          []float32
	lossSum, accSum float64

	// WorkFactor scales the modeled work's node and edge counts (0 means
	// 1): MariusGNN's general-purpose engine is slower per batch than PyG.
	WorkFactor float64
}

// NewLearner builds the train step for k on ds, computing on dev. With
// k.RealTrain the model is initialized from k.Seed and trained by Adam at
// k.LR.
func NewLearner(ds *graph.Dataset, dev *device.Device, k Knobs) *Learner {
	l := &Learner{ds: ds, dev: dev, k: k}
	if k.RealTrain {
		cfg := nn.Config{Kind: k.Model, InDim: ds.Dim, Hidden: k.Hidden,
			Classes: ds.NumClasses, Layers: k.Layers}
		l.model = nn.NewModel(cfg, tensor.NewRNG(k.Seed*7919))
		l.opt = nn.NewAdam(k.LR)
	}
	return l
}

// Model returns the real-training model (nil in modeled mode).
func (l *Learner) Model() *nn.Model { return l.model }

// Input returns the feature matrix for b's next step, one row per node of
// b, for the caller to fill; nil in modeled mode. The matrix is scratch
// reused by every step.
func (l *Learner) Input(b *sample.Batch) *tensor.Matrix {
	if l.model == nil {
		return nil
	}
	l.x = tensor.EnsureShape(l.x, len(b.Nodes), l.ds.Dim)
	return l.x
}

// Step trains on b with the features Input returned. In real training it
// runs forward and backward, calls sync (when non-nil) before the
// optimizer applies the gradients — where data-parallel workers average
// them — books the step as device compute time, and records the batch's
// loss and accuracy in the epoch's record. In modeled mode it charges the
// device for the batch's modeled work and calls sync.
func (l *Learner) Step(b *sample.Batch, x *tensor.Matrix, sync func()) {
	if l.model == nil {
		l.dev.Compute(l.work(b))
		if sync != nil {
			sync()
		}
		return
	}
	t0 := time.Now()
	if cap(l.labels) < b.NumTargets {
		l.labels = make([]int32, b.NumTargets)
	}
	labels := l.labels[:b.NumTargets]
	for i := range labels {
		labels[i] = l.ds.Labels[b.Nodes[i]]
	}
	// Loss consumes x during the forward+backward pass; nothing retains
	// it afterwards, so the scratch is safe to reuse next step.
	loss, acc := l.model.Loss(b, x, labels)
	if sync != nil {
		sync()
	}
	l.opt.Step(l.model.Params())
	l.dev.AddComputeBusy(time.Since(t0))
	l.losses = append(l.losses, loss)
	l.lossSum += float64(loss)
	l.accSum += acc
}

// EndEpoch closes the epoch's loss record and returns bd as the epoch's
// result: in real training, with the mean loss and accuracy over the steps
// since the last EndEpoch and their losses in step order. The next step
// starts a new record.
func (l *Learner) EndEpoch(bd metrics.Breakdown) EpochResult {
	r := EpochResult{Breakdown: bd, StepLosses: l.losses}
	if n := len(l.losses); n > 0 {
		r.Loss = l.lossSum / float64(n)
		r.Acc = l.accSum / float64(n)
	}
	l.losses, l.lossSum, l.accSum = nil, 0, 0
	return r
}

// work is the modeled device cost of one training step on b.
func (l *Learner) work(b *sample.Batch) device.Work {
	nodes, edges := int64(len(b.Nodes)), b.NumEdges()
	if f := l.WorkFactor; f != 0 {
		nodes, edges = int64(float64(nodes)*f), int64(float64(edges)*f)
	}
	return device.Work{
		Model:    l.k.Model,
		Nodes:    nodes,
		Edges:    edges,
		InDim:    l.ds.Dim,
		Hidden:   l.k.Hidden,
		Classes:  l.ds.NumClasses,
		Layers:   l.k.Layers,
		Backward: true,
	}
}
