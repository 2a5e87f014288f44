// Package gen builds the synthetic datasets that stand in for the paper's
// four graphs (Table 1). Real Papers100M/MAG240M downloads and hundreds of
// gigabytes of features are out of reach here, so each dataset is a
// power-law (preferential-attachment) graph whose node count, edge count,
// feature dimension, and class count preserve the paper's ratios at a
// 1:1000 scale; the host-memory budget is scaled identically, so the
// out-of-core ratio — the thing every experiment actually varies — is the
// same as on the paper's testbed. Twitter and Friendster used randomly
// generated features and labels in the paper itself, so for those two the
// substitution is exact in kind.
//
// Features are planted-community: feature(v) = centroid(class(v))*signal +
// N(0,1) noise, and edges prefer same-class endpoints (homophily), so a
// GNN genuinely benefits from aggregation and convergence experiments
// (Fig. 14) are meaningful.
package gen

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"gnndrive/internal/graph"
	"gnndrive/internal/storage"
	"gnndrive/internal/tensor"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name string
	// Nodes is the node count; EdgesPerNode is the number of undirected
	// attachment edges each arriving node creates (final directed edge
	// count is ~2*Nodes*EdgesPerNode).
	Nodes        int
	EdgesPerNode int
	// Dim is the feature dimension; Classes the label count.
	Dim     int
	Classes int
	// Homophily is the probability that an edge's degree-drawn endpoint
	// is re-drawn toward the new node's class: up to six more draws from
	// the same degree pool, keeping the last when none matches. It is not
	// the share of same-class edges, which falls with the class count:
	// tiny (8 classes, 0.7) gets 46.3 %, papers100m-s (172 classes, 0.6)
	// 2.6 %. Signal scales the class centroid against unit Gaussian
	// noise.
	Homophily float64
	Signal    float64
	// TrainFrac and ValFrac are the node fractions in each split.
	TrainFrac, ValFrac float64
	Seed               uint64
}

// The scaled stand-ins for Table 1 (1:1000 of the paper's graphs).

// Papers returns the Papers100M stand-in: 111k nodes, ~1.6M undirected
// edges, dim 128, 172 classes.
func Papers() Spec {
	return Spec{Name: "papers100m-s", Nodes: 111_000, EdgesPerNode: 7, Dim: 128,
		Classes: 172, Homophily: 0.6, Signal: 0.9, TrainFrac: 0.10, ValFrac: 0.02, Seed: 1001}
}

// Twitter returns the Twitter stand-in: 41.7k nodes, ~1.5M edges, dim 128.
func Twitter() Spec {
	return Spec{Name: "twitter-s", Nodes: 41_700, EdgesPerNode: 18, Dim: 128,
		Classes: 50, Homophily: 0.5, Signal: 0.9, TrainFrac: 0.10, ValFrac: 0.02, Seed: 1002}
}

// Friendster returns the Friendster stand-in: 65.6k nodes, ~1.8M edges.
func Friendster() Spec {
	return Spec{Name: "friendster-s", Nodes: 65_600, EdgesPerNode: 14, Dim: 128,
		Classes: 50, Homophily: 0.5, Signal: 0.9, TrainFrac: 0.10, ValFrac: 0.02, Seed: 1003}
}

// MAG240M returns the MAG240M paper-node stand-in: 122k nodes, ~1.3M
// edges, dim 768, 153 classes.
func MAG240M() Spec {
	return Spec{Name: "mag240m-s", Nodes: 122_000, EdgesPerNode: 5, Dim: 768,
		Classes: 153, Homophily: 0.6, Signal: 0.9, TrainFrac: 0.10, ValFrac: 0.02, Seed: 1004}
}

// Tiny returns a small dataset for unit tests and the quickstart example.
func Tiny() Spec {
	return Spec{Name: "tiny", Nodes: 2_000, EdgesPerNode: 6, Dim: 32,
		Classes: 8, Homophily: 0.7, Signal: 1.2, TrainFrac: 0.30, ValFrac: 0.10, Seed: 7}
}

// ByName resolves a dataset spec from its name, in any case and with or
// without the "-s" suffix. It is the only dataset-name parser.
func ByName(name string) (Spec, error) {
	for _, s := range []Spec{Papers(), Twitter(), Friendster(), MAG240M(), Tiny()} {
		if strings.EqualFold(s.Name, name) || strings.EqualFold(s.Name, name+"-s") {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// SizeBytes returns the device bytes the dataset will occupy
// (indices + features), before generation.
func (s Spec) SizeBytes() int64 {
	edges := int64(2 * s.Nodes * s.EdgesPerNode)
	return edges*4 + 512 + int64(s.Nodes)*int64(s.Dim)*4
}

// Build generates the dataset and writes its index array and feature
// table to dev starting at byte offset base. Generation is untimed.
func Build(s Spec, dev storage.Backend, base int64) (*graph.Dataset, error) {
	if s.Nodes < 2 || s.EdgesPerNode < 1 || s.Dim < 1 || s.Classes < 2 {
		return nil, fmt.Errorf("gen: bad spec %+v", s)
	}
	rng := tensor.NewRNG(s.Seed)

	classes := make([]int32, s.Nodes)
	for i := range classes {
		classes[i] = int32(rng.Intn(s.Classes))
	}

	indptr, indices := buildTopology(s, rng, classes)
	numNodes := int64(s.Nodes)
	numEdges := int64(len(indices))

	// The feature table is aligned to the sector size so direct I/O can
	// address it (§4.4).
	featOff := (base + numEdges*4 + 511) / 512 * 512
	layout := graph.Layout{
		IndicesOff:  base,
		IndicesLen:  numEdges * 4,
		FeaturesOff: featOff,
		FeaturesLen: numNodes * int64(s.Dim) * 4,
	}
	if layout.FeaturesOff+layout.FeaturesLen > dev.Capacity() {
		return nil, fmt.Errorf("gen: dataset %s needs %d bytes at offset %d, device holds %d",
			s.Name, layout.IndicesLen+layout.FeaturesLen, base, dev.Capacity())
	}

	if err := writeIndices(dev, layout.IndicesOff, indices); err != nil {
		return nil, err
	}
	if err := writeFeatures(dev, layout.FeaturesOff, s, classes, rng); err != nil {
		return nil, err
	}

	ds := &graph.Dataset{
		Name:       s.Name,
		NumNodes:   numNodes,
		NumEdges:   numEdges,
		Dim:        s.Dim,
		NumClasses: s.Classes,
		Indptr:     indptr,
		Labels:     classes,
		Layout:     layout,
		Dev:        dev,
	}
	splitNodes(ds, s, rng)
	return ds, nil
}

// BuildWith creates a right-sized backend through the factory — the
// simulator or a real file (storage/sim, storage/file) — and builds the
// dataset on it. The caller owns (and should Close) the returned backend
// via the dataset's Dev field.
func BuildWith(s Spec, newBackend storage.Factory) (*graph.Dataset, error) {
	dev, err := newBackend(s.SizeBytes() + int64(4096))
	if err != nil {
		return nil, fmt.Errorf("gen: dataset backend: %w", err)
	}
	ds, err := Build(s, dev, 0)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return ds, nil
}

// buildTopology grows a preferential-attachment graph with homophily bias
// and returns it in CSC form. Each edge (u, v) lists u among v's
// in-neighbors and v among u's; every list holds its neighbors in edge
// creation order.
func buildTopology(s Spec, rng *tensor.RNG, classes []int32) (indptr []int64, indices []int32) {
	indptr = make([]int64, s.Nodes+1)
	// Endpoint pool for preferential attachment: every edge endpoint is
	// appended, so sampling from it is degree-proportional. After pool[0]
	// it holds each edge as the pair (u, v), in creation order.
	pool := make([]int32, 0, 2*s.Nodes*s.EdgesPerNode)
	pool = append(pool, 0)
	for v := 1; v < s.Nodes; v++ {
		cv := classes[v]
		for e := 0; e < s.EdgesPerNode; e++ {
			u := pickTarget(rng, pool, v)
			if rng.Float64() < s.Homophily {
				for t := 0; t < 6 && classes[u] != cv; t++ {
					u = pickTarget(rng, pool, v)
				}
			}
			indptr[v+1]++
			indptr[u+1]++
			pool = append(pool, u, int32(v))
		}
	}
	for v := 1; v <= s.Nodes; v++ {
		indptr[v] += indptr[v-1]
	}
	// Scatter the edges in creation order, using indptr[v] as v's fill
	// cursor; that leaves indptr[v] at v's end, i.e. at indptr[v+1]'s
	// value, so one shift restores the starts.
	indices = make([]int32, indptr[s.Nodes])
	edges := pool[1:]
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		indices[indptr[v]] = u
		indptr[v]++
		indices[indptr[u]] = v
		indptr[u]++
	}
	copy(indptr[1:], indptr[:s.Nodes])
	indptr[0] = 0
	return indptr, indices
}

// pickTarget samples an attachment target among nodes < v, degree-biased
// with probability 0.75.
func pickTarget(rng *tensor.RNG, pool []int32, v int) int32 {
	if len(pool) > 0 && rng.Float64() < 0.75 {
		for t := 0; t < 16; t++ {
			u := pool[rng.Intn(len(pool))]
			if int(u) < v {
				return u
			}
		}
	}
	return int32(rng.Intn(v))
}

// writeIndices writes the index array little-endian in 1 MiB chunks.
func writeIndices(dev storage.Backend, off int64, indices []int32) error {
	const chunkIDs = (1 << 20) / 4
	buf := make([]byte, 4*chunkIDs)
	for lo := 0; lo < len(indices); lo += chunkIDs {
		ids := indices[lo:min(lo+chunkIDs, len(indices))]
		for i, u := range ids {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(u))
		}
		if err := dev.WriteRaw(buf[:4*len(ids)], off+4*int64(lo)); err != nil {
			return err
		}
	}
	return nil
}

// Centroid returns the deterministic ±Signal pattern used as class c's
// feature centroid.
func Centroid(s Spec, c int) []float32 {
	crng := tensor.NewRNG(s.Seed*131 + uint64(c))
	vec := make([]float32, s.Dim)
	for j := range vec {
		if crng.Float64() < 0.5 {
			vec[j] = float32(s.Signal)
		} else {
			vec[j] = -float32(s.Signal)
		}
	}
	return vec
}

// featureChunkBytes is the unit writeFeatures synthesises and writes: a
// file backend sees a few hundred writes instead of one per node, and the
// integrity wrapper hashes whole blocks instead of re-reading one per row.
const featureChunkBytes = 256 << 10

// featureChunk is the feature rows of nodes [first, first+rows) on their
// way from uniforms to bytes.
type featureChunk struct {
	first, rows int
	u           []float64     // RNG.NormUniforms pairs, one per value, in stream order
	out         []byte        // the encoded rows
	ready       chan struct{} // 1-buffered: a worker has filled out
}

// writeFeatures writes feature(v) = centroid(class(v)) + N(0,1) noise for
// every node. The bytes and rng's final position are those of the plain
// loop drawing rng.NormFloat32 once per value: one goroutine draws the
// uniforms in that order, GOMAXPROCS workers turn them into rows with
// tensor.NormalRow (the Box-Muller math and the encoding, DESIGN.md §7.7),
// and the calling goroutine alone writes finished chunks in ascending
// offset order (consecutive chunks share a checksum block, which two
// concurrent writers would race to refresh).
func writeFeatures(dev storage.Backend, off int64, s Spec, classes []int32, rng *tensor.RNG) error {
	centroids := make([][]float32, s.Classes)
	for c := range centroids {
		centroids[c] = Centroid(s, c)
	}
	rowBytes := s.Dim * 4
	chunkRows := (featureChunkBytes + rowBytes - 1) / rowBytes
	nWorkers := runtime.GOMAXPROCS(0)
	// Chunks in flight: one being drawn, one per worker, one per worker
	// waiting its turn to be written. order can hold them all, so only
	// the free list ever makes the drawing goroutine wait.
	inflight := 2*nWorkers + 1
	free := make(chan *featureChunk, inflight)
	for i := 0; i < inflight; i++ {
		free <- &featureChunk{u: make([]float64, 2*chunkRows*s.Dim),
			out: make([]byte, chunkRows*rowBytes), ready: make(chan struct{}, 1)}
	}
	work := make(chan *featureChunk)
	order := make(chan *featureChunk, inflight)

	go func() {
		defer close(order)
		defer close(work)
		for first := 0; first < s.Nodes; first += chunkRows {
			c := <-free
			c.first, c.rows = first, min(chunkRows, s.Nodes-first)
			u := c.u[:2*c.rows*s.Dim]
			for i := 0; i < len(u); i += 2 {
				u[i], u[i+1] = rng.NormUniforms()
			}
			work <- c
			order <- c
		}
	}()
	var workers sync.WaitGroup
	workers.Add(nWorkers)
	for w := 0; w < nWorkers; w++ {
		go func() {
			defer workers.Done()
			for c := range work {
				for r := 0; r < c.rows; r++ {
					tensor.NormalRow(c.out[r*rowBytes:], centroids[classes[c.first+r]], c.u[2*r*s.Dim:])
				}
				c.ready <- struct{}{}
			}
		}()
	}
	// Every chunk comes through order and goes back to free, written or
	// not, so a failed write leaves no goroutine blocked: the rest is
	// synthesised, discarded, and the channels close.
	var err error
	for c := range order {
		<-c.ready
		if err == nil {
			err = dev.WriteRaw(c.out[:c.rows*rowBytes], off+int64(c.first)*int64(rowBytes))
		}
		free <- c
	}
	workers.Wait()
	return err
}

func splitNodes(ds *graph.Dataset, s Spec, rng *tensor.RNG) {
	perm := rng.Perm(int(ds.NumNodes))
	nTrain := int(float64(ds.NumNodes) * s.TrainFrac)
	nVal := int(float64(ds.NumNodes) * s.ValFrac)
	ds.TrainIdx = make([]int64, nTrain)
	for i := 0; i < nTrain; i++ {
		ds.TrainIdx[i] = int64(perm[i])
	}
	ds.ValIdx = make([]int64, nVal)
	for i := 0; i < nVal; i++ {
		ds.ValIdx[i] = int64(perm[nTrain+i])
	}
}
