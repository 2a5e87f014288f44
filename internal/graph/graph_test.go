package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

// buildTestDataset writes a small hand-made CSC graph to a device:
// 4 nodes; in-neighbors: 0<-{1,2}, 1<-{0}, 2<-{}, 3<-{0,1,2}.
func buildTestDataset(t *testing.T) *Dataset {
	t.Helper()
	dev := sim.New(1<<20, sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	indices := []int32{1, 2, 0, 0, 1, 2}
	indptr := []int64{0, 2, 3, 3, 6}
	raw := make([]byte, len(indices)*4)
	for i, v := range indices {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(v))
	}
	const indOff = 512
	dev.WriteAt(raw, indOff)
	dim := 8
	featOff := int64(indOff + len(raw))
	frow := make([]byte, dim*4)
	for v := 0; v < 4; v++ {
		for j := 0; j < dim; j++ {
			binary.LittleEndian.PutUint32(frow[j*4:], math.Float32bits(float32(v*100+j)))
		}
		dev.WriteAt(frow, featOff+int64(v*dim*4))
	}
	return &Dataset{
		Name: "test", NumNodes: 4, NumEdges: 6, Dim: dim, NumClasses: 2,
		Indptr: indptr,
		Labels: []int32{0, 1, 0, 1},
		Layout: Layout{
			IndicesOff: indOff, IndicesLen: int64(len(raw)),
			FeaturesOff: featOff, FeaturesLen: int64(4 * dim * 4),
		},
		Dev: dev,
	}
}

func TestValidateAccepts(t *testing.T) {
	ds := buildTestDataset(t)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadIndptr(t *testing.T) {
	ds := buildTestDataset(t)
	ds.Indptr[2] = 5
	ds.Indptr[3] = 4 // non-monotone
	if err := ds.Validate(); err == nil {
		t.Fatal("expected monotonicity error")
	}
}

func TestRawReaderNeighbors(t *testing.T) {
	ds := buildTestDataset(t)
	r := NewRawReader(ds)
	cases := map[int64][]int32{0: {1, 2}, 1: {0}, 2: {}, 3: {0, 1, 2}}
	var buf []int32
	for v, want := range cases {
		ns, wait, err := r.Neighbors(v, buf)
		if err != nil {
			t.Fatal(err)
		}
		if wait != 0 {
			t.Fatal("raw reader must be untimed")
		}
		if len(ns) != len(want) {
			t.Fatalf("node %d: got %v want %v", v, ns, want)
		}
		for i := range want {
			if ns[i] != want[i] {
				t.Fatalf("node %d: got %v want %v", v, ns, want)
			}
		}
	}
}

func TestCachedReaderMatchesRaw(t *testing.T) {
	ds := buildTestDataset(t)
	budget := hostmem.NewBudget(1 << 20)
	cache := pagecache.New(ds.Dev, budget)
	file := IndicesFile(ds, cache)
	cr := NewCachedReader(ds, cache, file)
	rr := NewRawReader(ds)
	for v := int64(0); v < ds.NumNodes; v++ {
		a, _, err := cr.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := rr.Neighbors(v, nil)
		if len(a) != len(b) {
			t.Fatalf("node %d: cached %v raw %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: cached %v raw %v", v, a, b)
			}
		}
	}
	if cache.Stats().Misses == 0 {
		t.Fatal("cached reader should have faulted pages")
	}
}

// buildWideDataset writes a topology-only CSC graph whose adjacency lists
// range from empty to several pages long, at an index region that does
// not start on a page boundary.
func buildWideDataset(t *testing.T) *Dataset {
	t.Helper()
	const nodes = 300
	indptr := make([]int64, nodes+1)
	var indices []int32
	for v := 0; v < nodes; v++ {
		deg := (v * 37) % 90
		if v%50 == 7 {
			deg = 2500 // ten KB: spans three or four pages
		}
		for i := 0; i < deg; i++ {
			indices = append(indices, int32((v*131+i*17)%nodes))
		}
		indptr[v+1] = int64(len(indices))
	}
	raw := make([]byte, len(indices)*4)
	for i, u := range indices {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(u))
	}
	const indOff = 512
	dev := sim.New(int64(indOff+len(raw)), sim.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	dev.WriteAt(raw, indOff)
	return &Dataset{
		Name: "wide", NumNodes: nodes, NumEdges: int64(len(indices)),
		Indptr: indptr,
		Layout: Layout{IndicesOff: indOff, IndicesLen: int64(len(raw))},
		Dev:    dev,
	}
}

// TestCachedReaderPrefetchMatchesRaw: a prefetched window serves exactly
// the raw adjacency lists — for nodes inside the window (from pinned
// frames, at no further cache traffic) and outside it (through the
// one-page path) — under a cache far smaller than the topology.
func TestCachedReaderPrefetchMatchesRaw(t *testing.T) {
	ds := buildWideDataset(t)
	cache := pagecache.New(ds.Dev, hostmem.NewBudget(4*pagecache.PageSize))
	cr := NewCachedReader(ds, cache, IndicesFile(ds, cache))
	rr := NewRawReader(ds)
	check := func(v int64) {
		t.Helper()
		got, _, err := cr.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := rr.Neighbors(v, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("node %d: cached reader returned %d ids that differ from the raw %d", v, len(got), len(want))
		}
	}
	var window []int64
	for lo := int64(0); lo < ds.NumNodes; lo += 48 {
		window = window[:0]
		for v := lo; v < min(lo+48, ds.NumNodes); v++ {
			window = append(window, (v*7)%ds.NumNodes) // unsorted, as a frontier is
		}
		if _, err := cr.Prefetch(window); err != nil {
			t.Fatal(err)
		}
		pinned := cache.Stats()
		for _, v := range window {
			check(v)
		}
		if after := cache.Stats(); after != pinned {
			t.Fatalf("window reads went back to the cache: %+v -> %+v", pinned, after)
		}
		check((lo + 150) % ds.NumNodes) // most likely outside the window
		cr.Release()
	}
	if s := cache.Stats(); s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("stats %+v: the test should fault and evict", s)
	}
	if _, err := cr.Prefetch([]int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Prefetch([]int64{2}); err == nil {
		t.Fatal("Prefetch without Release of the previous window succeeded")
	}
	cr.Release()
}

func TestFeatureOffAndRead(t *testing.T) {
	ds := buildTestDataset(t)
	if off := ds.FeatureOff(2); off != ds.Layout.FeaturesOff+2*ds.FeatBytes() {
		t.Fatalf("FeatureOff(2)=%d", off)
	}
	f := ds.ReadFeatureRaw(3, nil)
	if len(f) != ds.Dim || f[0] != 300 || f[7] != 307 {
		t.Fatalf("feature of node 3: %v", f)
	}
}

func TestDegree(t *testing.T) {
	ds := buildTestDataset(t)
	want := []int64{2, 1, 0, 3}
	for v, w := range want {
		if ds.Degree(int64(v)) != w {
			t.Fatalf("degree(%d)=%d want %d", v, ds.Degree(int64(v)), w)
		}
	}
}

func TestDecodeFeature(t *testing.T) {
	raw := make([]byte, 8)
	binary.LittleEndian.PutUint32(raw, math.Float32bits(1.5))
	binary.LittleEndian.PutUint32(raw[4:], math.Float32bits(-2))
	out := DecodeFeature(raw, nil)
	if out[0] != 1.5 || out[1] != -2 {
		t.Fatalf("DecodeFeature got %v", out)
	}
}

// refDecodeFeature is the per-float loop DecodeFeature replaced, kept as
// the reference its memmove must match bit for bit.
func refDecodeFeature(raw []byte, out []float32) []float32 {
	n := len(raw) / 4
	for i := 0; i < n; i++ {
		out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	return out
}

// featureBytes encodes bits little-endian and appends tail extra bytes.
func featureBytes(bits []uint32, tail int) []byte {
	raw := make([]byte, 4*len(bits)+tail)
	for i, b := range bits {
		binary.LittleEndian.PutUint32(raw[4*i:], b)
	}
	for i := 4 * len(bits); i < len(raw); i++ {
		raw[i] = 0xA5
	}
	return raw
}

// sameBits compares float32s by bit pattern, so NaN payloads and -0 count.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] bits %#08x, want %#08x", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestDecodeFeatureMatchesLoop pins DecodeFeature (and its big-endian
// fallback) to the per-float loop on every shape the contract names:
// whole and ragged lengths, special values, an existing prefix, and an
// out that has to grow.
func TestDecodeFeatureMatchesLoop(t *testing.T) {
	specials := []uint32{
		0x7fc00001, // quiet NaN with a payload
		0xff800123, // signalling NaN with sign and payload
		0x80000000, // -0
		0x00000001, // smallest denormal
		0x007fffff, // largest denormal
		math.Float32bits(float32(math.Inf(1))),
		math.Float32bits(float32(math.Inf(-1))),
		math.Float32bits(1.5),
	}
	bitsOf := func(n int) []uint32 {
		b := make([]uint32, n)
		for i := range b {
			b[i] = uint32(i) * 2654435761 // every bit pattern class, NaNs included
			if i%2 == 0 {
				b[i] = specials[i/2%len(specials)]
			}
		}
		return b
	}
	type tc struct {
		name string
		raw  []byte
	}
	var cases []tc
	for _, n := range []int{0, 1, 100, 128} {
		cases = append(cases, tc{fmt.Sprintf("len%d", n), featureBytes(bitsOf(n), 0)})
	}
	for tail := 1; tail <= 3; tail++ {
		cases = append(cases, tc{fmt.Sprintf("len5+%d", tail), featureBytes(bitsOf(5), tail)})
	}
	cases = append(cases, tc{"specials", featureBytes(specials, 0)}, tc{"tail-only", []byte{1, 2, 3}})

	decoders := []struct {
		name string
		fn   func([]byte, []float32) []float32
	}{{"DecodeFeature", DecodeFeature}, {"decodeFeatureLoop", decodeFeatureLoop}}
	for _, d := range decoders {
		for _, c := range cases {
			sameBits(t, d.name+"/"+c.name+"/nil", d.fn(c.raw, nil), refDecodeFeature(c.raw, nil))

			// A prefix already in out is kept, and with room to spare the
			// result shares out's backing array, as append's would.
			prefix := []float32{-7, float32(math.NaN())}
			roomy := append(make([]float32, 0, len(prefix)+len(c.raw)/4+3), prefix...)
			got := d.fn(c.raw, roomy)
			sameBits(t, d.name+"/"+c.name+"/prefix", got, refDecodeFeature(c.raw, slices.Clone(prefix)))
			if len(got) > 0 && &got[0] != &roomy[:1][0] {
				t.Fatalf("%s/%s: decoded into a new array despite spare capacity", d.name, c.name)
			}

			// One float of spare capacity: a row that does not fit grows
			// out as append grows it — same result, a new array exactly
			// when append moves, the caller's elements left alone. (The
			// old loop could scribble one float into the caller's spare
			// capacity before moving; nothing may rely on that.)
			gotArr, wantArr := []float32{3, 4, 99}, []float32{3, 4, 99}
			got = d.fn(c.raw, gotArr[:2])
			want := refDecodeFeature(c.raw, wantArr[:2])
			sameBits(t, d.name+"/"+c.name+"/grow", got, want)
			sameBits(t, d.name+"/"+c.name+"/caller-prefix", gotArr[:2], wantArr[:2])
			if moved, wantMoved := &got[0] != &gotArr[0], &want[0] != &wantArr[0]; moved != wantMoved {
				t.Fatalf("%s/%s: moved to a new array %v, append moves %v", d.name, c.name, moved, wantMoved)
			}
		}
	}
}

// TestDecodeFeatureZeroAlloc pins the memmove path: with capacity to
// spare, decoding a row allocates nothing.
func TestDecodeFeatureZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	raw := featureBytes(make([]uint32, 128), 0)
	dst := make([]float32, 8*128)
	row := 0
	if a := testing.AllocsPerRun(200, func() {
		row = (row + 3) % 8
		DecodeFeature(raw, dst[row*128:row*128])
	}); a != 0 {
		t.Fatalf("DecodeFeature allocates %.1f per row, want 0", a)
	}
}

// BenchmarkDecodeFeature decodes one row into a pseudo-random slot of a
// feature buffer far larger than cache, as the extractor does.
func BenchmarkDecodeFeature(b *testing.B) {
	const slots = 8752
	for _, dim := range []int{100, 128} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			raw := featureBytes(make([]uint32, dim), 0)
			buf := make([]float32, slots*dim)
			slot := 0
			b.SetBytes(int64(4 * dim))
			for i := 0; i < b.N; i++ {
				slot = (slot + 4099) % slots
				DecodeFeature(raw, buf[slot*dim:slot*dim])
			}
		})
	}
}
