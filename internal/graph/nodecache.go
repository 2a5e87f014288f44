package graph

import (
	"context"
	"sort"
	"time"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
)

// StaticNeighborCache pins the adjacency lists of the highest-degree nodes
// in host memory: AliGraph's static hub cache and Ginex's neighbor cache
// (§2). Power-law sampling hits hubs constantly, so a small static cache
// removes most topology I/O. The lists are loaded once and then only
// read, so every sampler goroutine shares them through its own Reader.
type StaticNeighborCache struct {
	ds     *Dataset
	lists  map[int64][]int32
	bytes  int64
	budget *hostmem.Budget
}

// NewStaticNeighborCache pins capacity bytes of budget and preloads the
// highest-degree nodes' lists into it (read untimed — cache warmup is
// setup).
func NewStaticNeighborCache(ds *Dataset, budget *hostmem.Budget, capacity int64) (*StaticNeighborCache, error) {
	if err := budget.Pin("static neighbor cache", capacity); err != nil {
		return nil, err
	}
	c := &StaticNeighborCache{ds: ds, lists: make(map[int64][]int32), bytes: capacity, budget: budget}
	order := make([]int64, ds.NumNodes)
	for i := range order {
		order[i] = int64(i)
	}
	sort.Slice(order, func(a, b int) bool { return ds.Degree(order[a]) > ds.Degree(order[b]) })
	raw := NewRawReader(ds)
	var used int64
	for _, v := range order {
		need := ds.Degree(v)*4 + 16
		if used+need > capacity {
			break
		}
		ns, _, err := raw.Neighbors(v, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.lists[v] = append([]int32(nil), ns...)
		used += need
	}
	return c, nil
}

// Reader returns a NeighborReader for one goroutine: cached lists come
// from memory, every other list from a 512-byte-aligned direct read of
// the index array that bypasses the page cache and carries ctx.
func (c *StaticNeighborCache) Reader(ctx context.Context) NeighborReader {
	return &hubReader{c: c, ctx: ctx}
}

// Close releases the budget pin.
func (c *StaticNeighborCache) Close() {
	if c.budget != nil {
		c.budget.Unpin(c.bytes)
		c.budget = nil
	}
}

// hubReader is one goroutine's view of a StaticNeighborCache; raw is its
// aligned miss buffer.
type hubReader struct {
	c   *StaticNeighborCache
	ctx context.Context
	raw []byte
}

// Neighbors implements NeighborReader.
func (r *hubReader) Neighbors(v int64, buf []int32) ([]int32, time.Duration, error) {
	if ns, ok := r.c.lists[v]; ok {
		return append(buf[:0], ns...), 0, nil
	}
	ds := r.c.ds
	lo, hi := ds.Indptr[v], ds.Indptr[v+1]
	if lo == hi {
		return buf[:0], 0, nil
	}
	start := ds.Layout.IndicesOff + lo*4
	end := ds.Layout.IndicesOff + hi*4
	aStart := start / 512 * 512
	aEnd := (end + 511) / 512 * 512
	if cap(r.raw) < int(aEnd-aStart) {
		r.raw = storage.AlignedBuf(int(aEnd-aStart), 512)
	}
	raw := r.raw[:aEnd-aStart]
	waited, err := ds.Dev.ReadDirectCtx(r.ctx, raw, aStart)
	if err != nil {
		return nil, waited, err
	}
	ids, err := decodeIndices(raw[start-aStart:end-aStart], buf[:0], ds.NumNodes)
	return ids, waited, err
}
