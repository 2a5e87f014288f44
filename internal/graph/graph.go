// Package graph defines the on-disk and in-memory representation of a
// graph dataset as the paper lays it out (§4.1, §5): topology as a CSC
// adjacency matrix whose index-pointer array (indptr) stays in host memory
// while the index array (indices) and the node-feature table live on the
// SSD; features are stored as a dense table in ascending node-ID order.
package graph

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"gnndrive/internal/layout"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
)

// Layout records where a dataset's arrays live on the device.
type Layout struct {
	// IndicesOff is the byte offset of the CSC index array (int32 LE).
	IndicesOff int64
	// IndicesLen is the index array length in bytes (4 * NumEdges).
	IndicesLen int64
	// FeaturesOff is the byte offset of the feature table (float32 LE,
	// row-major, NumNodes x Dim).
	FeaturesOff int64
	// FeaturesLen is the feature table length in bytes.
	FeaturesLen int64
}

// Dataset is a graph bound to a storage backend (the simulator or a real
// file; see internal/storage).
type Dataset struct {
	Name       string
	NumNodes   int64
	NumEdges   int64
	Dim        int
	NumClasses int

	// Indptr is the CSC index-pointer array, len NumNodes+1. The paper
	// keeps it in host memory because it is small (<1 GB) and hot.
	Indptr []int64
	// Labels holds the class of every node.
	Labels []int32
	// TrainIdx and ValIdx are the training and validation node IDs.
	TrainIdx []int64
	ValIdx   []int64

	Layout Layout
	Dev    storage.Backend

	// Addr maps node IDs to feature extents when the feature region uses
	// a non-strided layout (layout.Packed after offline packing). Nil
	// means the default strided table; read through Addresser(), which
	// supplies the strided default.
	Addr layout.Addresser
}

// FeatBytes returns the byte length of one node's feature vector.
func (d *Dataset) FeatBytes() int64 { return int64(d.Dim) * 4 }

// Addresser returns the dataset's feature addresser: Addr when a packed
// (or other) layout is installed, otherwise the strided default over the
// feature region. Feature readers must go through this instead of
// node*dim arithmetic.
func (d *Dataset) Addresser() layout.Addresser {
	if d.Addr != nil {
		return d.Addr
	}
	return layout.Strided{Base: d.Layout.FeaturesOff, Feat: int(d.FeatBytes()), Nodes: d.NumNodes}
}

// FeatureOff returns the device offset of node v's feature vector in the
// default strided layout. Callers that must work under any layout use
// Addresser().Extents instead; FeatureOff remains for strided-only paths
// (dataset generation, layout-rewriting baselines that check
// layout.ContiguousRange first).
func (d *Dataset) FeatureOff(v int64) int64 {
	return d.Layout.FeaturesOff + v*d.FeatBytes()
}

// Degree returns the in-degree of node v.
func (d *Dataset) Degree(v int64) int64 { return d.Indptr[v+1] - d.Indptr[v] }

// IndptrBytes returns the host-memory footprint of the indptr array.
func (d *Dataset) IndptrBytes() int64 { return int64(len(d.Indptr)) * 8 }

// Validate checks structural invariants: monotone indptr, edge count,
// in-range indices (sampled raw, untimed).
func (d *Dataset) Validate() error {
	if int64(len(d.Indptr)) != d.NumNodes+1 {
		return fmt.Errorf("graph: indptr len %d != nodes+1 %d", len(d.Indptr), d.NumNodes+1)
	}
	if d.Indptr[0] != 0 || d.Indptr[d.NumNodes] != d.NumEdges {
		return fmt.Errorf("graph: indptr ends %d..%d, want 0..%d", d.Indptr[0], d.Indptr[d.NumNodes], d.NumEdges)
	}
	for i := int64(0); i < d.NumNodes; i++ {
		if d.Indptr[i] > d.Indptr[i+1] {
			return fmt.Errorf("graph: indptr not monotone at %d", i)
		}
	}
	if d.Layout.IndicesLen != 4*d.NumEdges {
		return fmt.Errorf("graph: indices len %d != 4*edges", d.Layout.IndicesLen)
	}
	// Spot-check a bounded number of neighbor lists.
	r := NewRawReader(d)
	step := d.NumNodes/256 + 1
	buf := make([]int32, 0, 1024)
	for v := int64(0); v < d.NumNodes; v += step {
		ns, _, err := r.Neighbors(v, buf)
		if err != nil {
			return err
		}
		for _, u := range ns {
			if int64(u) < 0 || int64(u) >= d.NumNodes {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
		}
	}
	return nil
}

// NeighborReader yields the in-neighbors of a node. Implementations
// differ in where the index array bytes come from (page cache, raw
// device, Ginex's neighbor cache) and report the I/O wait they incurred.
type NeighborReader interface {
	// Neighbors appends v's in-neighbors to buf (which may be reused
	// across calls) and returns the filled slice plus time blocked on I/O.
	Neighbors(v int64, buf []int32) ([]int32, time.Duration, error)
}

// decodeIndices converts little-endian int32 bytes in place into ids.
func decodeIndices(raw []byte, ids []int32) []int32 {
	n := len(raw) / 4
	for i := 0; i < n; i++ {
		ids = append(ids, int32(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	return ids
}

// Prefetcher is an optional NeighborReader capability for readers whose
// reads can be batched: the sampler names the nodes it is about to
// expand, the reader makes their adjacency lists resident in one go and
// holds them, and the Neighbors calls that follow are served from memory.
type Prefetcher interface {
	NeighborReader
	// Prefetch loads and holds the adjacency lists of nodes until
	// Release, returning the time blocked on I/O. On error nothing is
	// held.
	Prefetch(nodes []int64) (time.Duration, error)
	// Release lets go of what the last Prefetch holds.
	Release()
}

// CachedReader reads the index array through the shared OS page cache,
// the memory-mapped sampling path PyG+ and GNNDrive both use (§4.4).
type CachedReader struct {
	ds   *Dataset
	file *pagecache.File
	// wave pins the index pages of the prefetched window; Neighbors
	// decodes from its frames without touching the cache lock.
	wave  *pagecache.Wave
	pages []int64
	ctx   context.Context
	raw   []byte
}

var _ Prefetcher = (*CachedReader)(nil)

// NewCachedReader mmaps the dataset's index region through cache.
// Each goroutine needs its own reader (the scratch buffer is not shared).
func NewCachedReader(ds *Dataset, cache *pagecache.Cache, file *pagecache.File) *CachedReader {
	return &CachedReader{ds: ds, file: file, wave: cache.NewWave()}
}

// SetContext makes ctx ride every page fault the reader causes, so
// cancelling it aborts a read stuck at the device. NeighborReader has no
// ctx parameter, hence the setter; a reader never given one cannot be
// cancelled.
func (r *CachedReader) SetContext(ctx context.Context) { r.ctx = ctx }

// IndicesFile registers the dataset's index region with a page cache.
// The returned file can be shared by many CachedReaders.
func IndicesFile(ds *Dataset, cache *pagecache.Cache) *pagecache.File {
	return cache.NewFile(ds.Layout.IndicesOff, ds.Layout.IndicesLen)
}

// Prefetch implements Prefetcher: it maps nodes to the index pages their
// adjacency lists occupy and pins them through one page-cache wave, so
// the window's missing pages reach the device as a single batch.
func (r *CachedReader) Prefetch(nodes []int64) (time.Duration, error) {
	r.pages = r.pages[:0]
	for _, v := range nodes {
		lo, hi := r.ds.Indptr[v]*4, r.ds.Indptr[v+1]*4
		if lo == hi {
			continue
		}
		for no := lo / pagecache.PageSize; no <= (hi-1)/pagecache.PageSize; no++ {
			r.pages = append(r.pages, no)
		}
	}
	slices.Sort(r.pages)
	r.pages = slices.Compact(r.pages)
	return r.wave.Pin(r.ctx, r.file, r.pages)
}

// Release implements Prefetcher.
func (r *CachedReader) Release() { r.wave.Unpin() }

// Neighbors implements NeighborReader. A node inside the prefetched
// window is decoded straight from the pinned frames; any other goes
// through the cache one page at a time.
func (r *CachedReader) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	lo, hi := r.ds.Indptr[v], r.ds.Indptr[v+1]
	n := int(hi - lo)
	if n == 0 {
		return buf[:0], 0, nil
	}
	if ids, ok := r.fromWindow(lo*4, n*4, buf[:0]); ok {
		return ids, 0, nil
	}
	if cap(r.raw) < n*4 {
		r.raw = make([]byte, n*4)
	}
	raw := r.raw[:n*4]
	waited, err := r.file.ReadCtx(r.ctx, lo*4, raw)
	if err != nil {
		return nil, waited, err
	}
	return decodeIndices(raw, buf[:0]), waited, nil
}

// fromWindow decodes file bytes [off, off+n) from the pinned window into
// ids, or reports false when some page of the range is not pinned. Ids
// are 4 bytes at 4-byte offsets, so none straddles a page.
func (r *CachedReader) fromWindow(off int64, n int, ids []int32) ([]int32, bool) {
	for n > 0 {
		frame := r.wave.Frame(off / pagecache.PageSize)
		if frame == nil {
			return nil, false
		}
		seg := frame[off%pagecache.PageSize:]
		if len(seg) > n {
			seg = seg[:n]
		}
		ids = decodeIndices(seg, ids)
		off += int64(len(seg))
		n -= len(seg)
	}
	return ids, true
}

// RawReader reads indices straight from the device image with no modeled
// cost; for setup, validation, and tests.
type RawReader struct {
	ds  *Dataset
	raw []byte
}

// NewRawReader creates an untimed reader over ds.
func NewRawReader(ds *Dataset) *RawReader { return &RawReader{ds: ds} }

// Neighbors implements NeighborReader with zero modeled wait.
func (r *RawReader) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	lo, hi := r.ds.Indptr[v], r.ds.Indptr[v+1]
	n := int(hi - lo)
	if n == 0 {
		return buf[:0], 0, nil
	}
	if cap(r.raw) < n*4 {
		r.raw = make([]byte, n*4)
	}
	raw := r.raw[:n*4]
	if err := r.ds.Dev.ReadRaw(raw, r.ds.Layout.IndicesOff+lo*4); err != nil {
		return nil, 0, err
	}
	return decodeIndices(raw, buf[:0]), 0, nil
}

// littleEndian reports whether float32s are stored little-endian in host
// memory, i.e. whether the on-disk feature encoding is the memory image.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// DecodeFeature appends the float32s of one node's little-endian feature
// bytes to out and returns the result, growing it like append; trailing
// bytes short of a whole float are ignored. On a little-endian host the
// bytes already are the floats' memory image, so decoding is one memmove
// into out's backing array — bit for bit what the per-float loop
// produces, NaN payloads included.
func DecodeFeature(raw []byte, out []float32) []float32 {
	if !littleEndian {
		return decodeFeatureLoop(raw, out)
	}
	n := len(raw) / 4
	if n == 0 {
		return out
	}
	l := len(out)
	out = slices.Grow(out, n)[:l+n]
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[l])), n*4), raw)
	return out
}

// decodeFeatureLoop is DecodeFeature one float at a time, for big-endian
// hosts.
func decodeFeatureLoop(raw []byte, out []float32) []float32 {
	n := len(raw) / 4
	for i := 0; i < n; i++ {
		out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	return out
}

// ReadFeatureRaw fetches node v's feature vector untimed (setup/tests),
// resolving the dataset's layout through the addresser so packed
// datasets read correctly. Read errors panic: this is a
// setup/verification accessor, never on a production path, and its call
// sites predate backends that can fail.
func (d *Dataset) ReadFeatureRaw(v int64, out []float32) []float32 {
	raw := make([]byte, d.FeatBytes())
	var exts [2]layout.Extent
	for _, e := range d.Addresser().Extents(v, exts[:0]) {
		if e.FeatOff < 0 || e.Len < 0 || e.FeatOff+e.Len > len(raw) {
			panic(fmt.Sprintf("graph: extent for node %d overruns the %d-byte feature record", v, len(raw)))
		}
		if err := d.Dev.ReadRaw(raw[e.FeatOff:e.FeatOff+e.Len], e.Off); err != nil {
			panic(fmt.Sprintf("graph: feature read for node %d: %v", v, err))
		}
	}
	return DecodeFeature(raw, out)
}
