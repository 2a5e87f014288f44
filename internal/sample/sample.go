// Package sample implements k-hop uniform neighborhood sampling, the
// "sample" stage of the SET loop (§2). A sampler turns a mini-batch of
// target nodes into a layered subgraph: a deduplicated node list (targets
// first) plus per-hop COO edge lists whose endpoints index into that
// list — the shape PyG's NeighborSampler produces and the shape the GNN
// layers in internal/nn consume.
package sample

import (
	"fmt"
	"time"

	"gnndrive/internal/graph"
	"gnndrive/internal/tensor"
)

// Layer is the COO edge list of one sampling hop. Edge i flows from
// Nodes[Src[i]] to Nodes[Dst[i]] (aggregation direction).
type Layer struct {
	Src []int32
	Dst []int32
}

// Batch is a sampled mini-batch subgraph.
type Batch struct {
	// ID is the batch's position in the epoch's original order.
	ID int
	// Nodes are the unique sampled node IDs; Nodes[:NumTargets] are the
	// batch's target (seed) nodes in order.
	Nodes      []int64
	NumTargets int
	// Layers[h] holds hop h+1's edges (Layers[0] connects 1-hop
	// neighbors to targets). The forward pass consumes them reversed.
	Layers []Layer
}

// NumEdges returns the total edge count across all hops.
func (b *Batch) NumEdges() int64 {
	var n int64
	for _, l := range b.Layers {
		n += int64(len(l.Src))
	}
	return n
}

// Reset empties the batch for reuse, keeping the Nodes and per-layer
// edge-list capacity so a recycled batch samples without reallocating.
func (b *Batch) Reset() {
	b.ID = 0
	b.NumTargets = 0
	b.Nodes = b.Nodes[:0]
	// Truncate Layers but keep the backing array: SampleBatchInto reslices
	// into it and reuses each Layer's Src/Dst capacity.
	b.Layers = b.Layers[:0]
}

// Sampler draws k-hop neighborhoods through a NeighborReader.
// A Sampler is not safe for concurrent use; give each goroutine its own
// (they can share the reader only if the reader is itself per-goroutine).
type Sampler struct {
	reader graph.NeighborReader
	// prefetch is reader's Prefetcher capability, nil when it has none.
	prefetch graph.Prefetcher
	fanouts  []int
	rng      *tensor.RNG
	scratch  []int32
	// index is the node-ID -> batch-position map, cleared and reused
	// across batches so the steady state allocates nothing. Go maps keep
	// their bucket array across clear(), so after the first few batches
	// lookups stop growing it.
	index map[int64]int32
	// expansion is the clamped per-target node-count estimate used to
	// presize fresh batches.
	expansion int
}

// New creates a sampler with per-hop fanouts (e.g. 10,10,10).
func New(reader graph.NeighborReader, fanouts []int, rng *tensor.RNG) *Sampler {
	if len(fanouts) == 0 {
		panic("sample: empty fanouts")
	}
	for _, f := range fanouts {
		if f <= 0 {
			panic(fmt.Sprintf("sample: fanout %d", f))
		}
	}
	// Worst-case unique nodes per target is the fanout-product series
	// 1 + f_k(1 + f_{k-1}(1 + ...)); dedup makes real batches much
	// smaller, so clamp the estimate to a sane presizing range.
	expansion := 1
	for i := len(fanouts) - 1; i >= 0; i-- {
		expansion = 1 + fanouts[i]*expansion
		if expansion > 256 {
			expansion = 256
			break
		}
	}
	if expansion < 8 {
		expansion = 8
	}
	prefetch, _ := reader.(graph.Prefetcher)
	return &Sampler{reader: reader, prefetch: prefetch, fanouts: fanouts, rng: rng,
		expansion: expansion}
}

// prefetchWindow is how many frontier nodes the sampler hands a
// Prefetcher at a time. A hop's whole frontier is known before its first
// adjacency list is read, but prefetching all of it would pin the
// frontier's entire page set at once; a fixed window keeps what one
// sampler pins to the pages of 64 adjacency lists while still giving the
// device a batch deep enough to overlap.
const prefetchWindow = 64

// Reseed resets the sampler's random stream. The engine reseeds per
// mini-batch from (run seed, epoch, batch ID), which makes a batch's
// sampled neighborhood a pure function of its identity — independent of
// which sampler goroutine draws it and of how many batches that
// goroutine drew before — so a resumed run re-samples the remaining
// batches exactly as the uninterrupted run would have.
func (s *Sampler) Reseed(seed uint64) { s.rng.Reseed(seed) }

// SampleBatch samples the k-hop neighborhood of targets into a fresh
// batch and returns it plus the time spent blocked on topology I/O.
func (s *Sampler) SampleBatch(id int, targets []int64) (*Batch, time.Duration, error) {
	b := &Batch{
		Nodes:  make([]int64, 0, len(targets)*s.expansion),
		Layers: make([]Layer, 0, len(s.fanouts)),
	}
	ioWait, err := s.SampleBatchInto(b, id, targets)
	if err != nil {
		return nil, ioWait, err
	}
	return b, ioWait, nil
}

// SampleBatchInto samples the k-hop neighborhood of targets into b,
// reusing b's node and edge-list capacity (b is Reset first). The engine
// recycles batches through a pool so the steady-state sampling path
// allocates only when a batch outgrows every predecessor. On error b is
// left in an unspecified state and must be Reset before reuse.
func (s *Sampler) SampleBatchInto(b *Batch, id int, targets []int64) (time.Duration, error) {
	b.Reset()
	b.ID = id
	b.NumTargets = len(targets)
	if s.index == nil {
		s.index = make(map[int64]int32, len(targets)*s.expansion)
	} else {
		clear(s.index)
	}
	index := s.index
	for _, t := range targets {
		if _, dup := index[t]; dup {
			return 0, fmt.Errorf("sample: duplicate target %d", t)
		}
		index[t] = int32(len(b.Nodes))
		b.Nodes = append(b.Nodes, t)
	}
	var ioWait time.Duration
	frontierLo, frontierHi := 0, len(b.Nodes)
	for _, fanout := range s.fanouts {
		// Reslice into the batch's layer array when capacity allows, so a
		// recycled batch reuses each hop's Src/Dst backing arrays.
		if cap(b.Layers) > len(b.Layers) {
			b.Layers = b.Layers[:len(b.Layers)+1]
		} else {
			b.Layers = append(b.Layers, Layer{})
		}
		layer := &b.Layers[len(b.Layers)-1]
		layer.Src = layer.Src[:0]
		layer.Dst = layer.Dst[:0]
		for lo := frontierLo; lo < frontierHi; lo += prefetchWindow {
			hi := min(lo+prefetchWindow, frontierHi)
			if s.prefetch != nil {
				w, err := s.prefetch.Prefetch(b.Nodes[lo:hi])
				ioWait += w
				if err != nil {
					return ioWait, err
				}
			}
			w, err := s.expand(b, layer, lo, hi, fanout)
			if s.prefetch != nil {
				s.prefetch.Release()
			}
			ioWait += w
			if err != nil {
				return ioWait, err
			}
		}
		frontierLo, frontierHi = frontierHi, len(b.Nodes)
	}
	return ioWait, nil
}

// expand samples the neighbors of frontier nodes b.Nodes[lo:hi] into
// layer, appending newly seen nodes to b.
func (s *Sampler) expand(b *Batch, layer *Layer, lo, hi, fanout int) (time.Duration, error) {
	var ioWait time.Duration
	for vi := lo; vi < hi; vi++ {
		v := b.Nodes[vi]
		ns, w, err := s.reader.Neighbors(v, s.scratch)
		s.scratch = ns[:0]
		ioWait += w
		if err != nil {
			return ioWait, err
		}
		picked := pickUniform(ns, fanout, s.rng)
		// Every frontier node aggregates itself too (self-loop), so
		// isolated nodes still produce an embedding.
		layer.Src = append(layer.Src, int32(vi))
		layer.Dst = append(layer.Dst, int32(vi))
		for _, u := range picked {
			ui, ok := s.index[int64(u)]
			if !ok {
				ui = int32(len(b.Nodes))
				s.index[int64(u)] = ui
				b.Nodes = append(b.Nodes, int64(u))
			}
			layer.Src = append(layer.Src, ui)
			layer.Dst = append(layer.Dst, int32(vi))
		}
	}
	return ioWait, nil
}

// pickUniform chooses up to fanout of ns uniformly without replacement
// (GraphSAGE-style, the paper's default) by a partial Fisher-Yates
// shuffle: it may reorder ns and returns a prefix of it. A node with no
// more than fanout neighbors keeps them all and draws nothing.
func pickUniform(ns []int32, fanout int, rng *tensor.RNG) []int32 {
	if len(ns) <= fanout {
		return ns
	}
	for i := 0; i < fanout; i++ {
		j := i + rng.Intn(len(ns)-i)
		ns[i], ns[j] = ns[j], ns[i]
	}
	return ns[:fanout]
}

// Plan is an epoch's mini-batch schedule: target node ID chunks in a
// (possibly shuffled) order.
type Plan struct {
	Batches [][]int64
}

// NewPlan splits train onto batches of size batchSize; if rng is non-nil
// the node order is shuffled first.
func NewPlan(train []int64, batchSize int, rng *tensor.RNG) *Plan {
	if batchSize <= 0 {
		panic("sample: batchSize <= 0")
	}
	order := make([]int64, len(train))
	copy(order, train)
	if rng != nil {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	p := &Plan{}
	for lo := 0; lo < len(order); lo += batchSize {
		hi := lo + batchSize
		if hi > len(order) {
			hi = len(order)
		}
		p.Batches = append(p.Batches, order[lo:hi])
	}
	return p
}

// BatchSeed derives one mini-batch's sampling stream from the run seed
// and the batch's identity (splitmix64-style mixing). The engine reseeds
// its samplers with it before every batch, making each sampled
// neighborhood a pure function of (seed, epoch, batch ID) — independent
// of sampler scheduling. Exported so offline consumers (resume logic,
// the packed-layout trace generator) reproduce the engine's batches
// exactly.
func BatchSeed(seed uint64, epoch, batch int) uint64 {
	z := seed + (uint64(epoch)+1)*0x9e3779b97f4a7c15 + (uint64(batch)+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// PlanSeed derives the epoch's shuffle-RNG seed for NewPlan, the
// counterpart of BatchSeed for the batch schedule itself.
func PlanSeed(seed uint64, epoch int) uint64 {
	return seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15
}

// EstimateMaxBatchNodes dry-runs sampling over a few batches with an
// untimed reader and returns a high-water estimate of unique nodes per
// mini-batch. GNNDrive sizes its feature and staging buffers from this
// (the paper's M_b), "with regard to the volume of topological data and
// the capacity of available host memory" (§4.2).
func EstimateMaxBatchNodes(ds *graph.Dataset, batchSize int, fanouts []int, probes int, seed uint64) (int, error) {
	rng := tensor.NewRNG(seed)
	smp := New(graph.NewRawReader(ds), fanouts, rng)
	if probes <= 0 {
		probes = 4
	}
	max := 0
	for p := 0; p < probes; p++ {
		targets := make([]int64, 0, batchSize)
		seen := make(map[int64]bool, batchSize)
		for len(targets) < batchSize && len(targets) < int(ds.NumNodes) {
			v := int64(rng.Intn(int(ds.NumNodes)))
			if !seen[v] {
				seen[v] = true
				targets = append(targets, v)
			}
		}
		b, _, err := smp.SampleBatch(p, targets)
		if err != nil {
			return 0, err
		}
		if len(b.Nodes) > max {
			max = len(b.Nodes)
		}
	}
	// Headroom for batches that sample wider than the probes did.
	est := max + max/4
	if est > int(ds.NumNodes) {
		est = int(ds.NumNodes)
	}
	return est, nil
}
