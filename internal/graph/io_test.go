package graph

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnndrive/internal/layout"
	"gnndrive/internal/storage/sim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := buildTestDataset(t)
	ds.TrainIdx = []int64{0, 2}
	ds.ValIdx = []int64{1}
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	if err := Save(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, sim.Factory(sim.InstantConfig()), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Dev.Close()
	if got.Name != ds.Name || got.NumNodes != ds.NumNodes || got.NumEdges != ds.NumEdges ||
		got.Dim != ds.Dim || got.NumClasses != ds.NumClasses {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range ds.Indptr {
		if got.Indptr[i] != ds.Indptr[i] {
			t.Fatalf("indptr[%d] %d != %d", i, got.Indptr[i], ds.Indptr[i])
		}
	}
	if got.TrainIdx[1] != 2 || got.ValIdx[0] != 1 {
		t.Fatalf("splits mismatch: %v %v", got.TrainIdx, got.ValIdx)
	}
	// Neighbors and features byte-identical.
	a, b := NewRawReader(ds), NewRawReader(got)
	for v := int64(0); v < ds.NumNodes; v++ {
		na, _, _ := a.Neighbors(v, nil)
		nb, _, _ := b.Neighbors(v, nil)
		if len(na) != len(nb) {
			t.Fatalf("node %d neighbors differ", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d neighbors differ", v)
			}
		}
		fa, err := ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := got.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("node %d features differ", v)
			}
		}
	}
	// Extra scratch capacity honored.
	if got.Dev.Capacity() < got.Layout.FeaturesOff+got.Layout.FeaturesLen+4096 {
		t.Fatal("scratch capacity missing")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, sim.Factory(sim.InstantConfig()), 0); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), sim.Factory(sim.InstantConfig()), 0); err == nil {
		t.Fatal("expected open error")
	}
}

// TestLoadRejectsCorruptHeader: counts that are negative, larger than the
// file, or IDs and labels outside their ranges are a load error, never a
// makeslice panic or a later sampler or learner panic.
func TestLoadRejectsCorruptHeader(t *testing.T) {
	ds := buildTestDataset(t)
	ds.TrainIdx = []int64{0, 2}
	ds.ValIdx = []int64{1}
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	if err := Save(ds, path); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaEnd := len(fileMagic) + 8 + int(binary.LittleEndian.Uint64(valid[len(fileMagic):]))
	var h header
	if err := json.Unmarshal(valid[len(fileMagic)+8:metaEnd], &h); err != nil {
		t.Fatal(err)
	}
	// reframe writes the container with its header edited by edit and its
	// arrays (everything after the metadata) edited by patch.
	reframe := func(edit func(*header), patch func(arrays []byte)) string {
		hh := h
		edit(&hh)
		meta, err := json.Marshal(hh)
		if err != nil {
			t.Fatal(err)
		}
		arrays := append([]byte(nil), valid[metaEnd:]...)
		patch(arrays)
		out := append([]byte(fileMagic), binary.LittleEndian.AppendUint64(nil, uint64(len(meta)))...)
		out = append(append(out, meta...), arrays...)
		p := filepath.Join(t.TempDir(), "bad.gnnd")
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	keep := func([]byte) {}
	trainOff := 8 * int(ds.NumNodes+1) // TrainIdx follows Indptr
	labelOff := trainOff + 8*3         // Labels follow TrainIdx and ValIdx
	for name, p := range map[string]string{
		"negative nodes":     reframe(func(h *header) { h.NumNodes = -5 }, keep),
		"negative train":     reframe(func(h *header) { h.Train = -1 }, keep),
		"negative edges":     reframe(func(h *header) { h.NumEdges = -1 }, keep),
		"zero dim":           reframe(func(h *header) { h.Dim = 0 }, keep),
		"huge nodes":         reframe(func(h *header) { h.NumNodes = 1 << 40 }, keep),
		"huge edges":         reframe(func(h *header) { h.NumEdges = 1 << 40 }, keep),
		"huge dim":           reframe(func(h *header) { h.Dim = 1 << 40 }, keep),
		"train beyond nodes": reframe(func(h *header) { h.Train = 5 }, keep),
		"train ID out of range": reframe(func(*header) {}, func(a []byte) {
			binary.LittleEndian.PutUint64(a[trainOff:], 99)
		}),
		"label out of range": reframe(func(*header) {}, func(a []byte) {
			binary.LittleEndian.PutUint32(a[labelOff:], 7)
		}),
		"truncated": func() string {
			p := filepath.Join(t.TempDir(), "short.gnnd")
			if err := os.WriteFile(p, valid[:len(valid)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}(),
	} {
		if _, err := Load(p, sim.Factory(sim.InstantConfig()), 0); err == nil {
			t.Errorf("%s: Load succeeded", name)
		} else if !strings.HasPrefix(err.Error(), "graph: ") {
			t.Errorf("%s: error %q is not a graph load error", name, err)
		}
	}
	if _, err := Load(reframe(func(*header) {}, keep), sim.Factory(sim.InstantConfig()), 0); err != nil {
		t.Fatalf("unedited reframe: %v", err)
	}
}

// A container whose bytes cannot all be written is an error, not a
// silently short file: on /dev/full every write fails with ENOSPC.
func TestSaveReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	if err := Save(buildTestDataset(t), "/dev/full"); err == nil {
		t.Fatal("Save to /dev/full returned nil")
	}
}

// TestSaveLoadPackedRoundTrip packs the test dataset in place, saves
// the container (which persists the offset index sidecar), and reloads
// it: the addresser must come back packed with identical node offsets
// and every feature must read back byte-identical through it.
func TestSaveLoadPackedRoundTrip(t *testing.T) {
	ds := buildTestDataset(t)
	ds.TrainIdx = []int64{0, 2}
	ds.ValIdx = []int64{1}
	want := make([][]float32, ds.NumNodes)
	for v := int64(0); v < ds.NumNodes; v++ {
		f, err := ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = f
	}
	tr := layout.NewTrace()
	tr.AddBatch([]int64{3, 1})
	p, err := layout.PackInPlace(ds.Dev, ds.Layout.FeaturesOff, int(ds.FeatBytes()),
		ds.NumNodes, tr, layout.PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds.Addr = p

	path := filepath.Join(t.TempDir(), "packed.gnnd")
	if err := Save(ds, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".pidx"); err != nil {
		t.Fatalf("offset index sidecar not written: %v", err)
	}
	got, err := Load(path, sim.Factory(sim.InstantConfig()), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Dev.Close()
	gp, ok := got.Addresser().(*layout.Packed)
	if !ok {
		t.Fatalf("loaded addresser is %T, want *layout.Packed", got.Addresser())
	}
	for v := int64(0); v < ds.NumNodes; v++ {
		if g, w := gp.NodeOffset(v)-got.Layout.FeaturesOff, p.NodeOffset(v)-ds.Layout.FeaturesOff; g != w {
			t.Fatalf("node %d at %d into the feature region, want %d", v, g, w)
		}
		fb, err := got.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fb {
			if fb[i] != want[v][i] {
				t.Fatalf("node %d features differ after packed round-trip", v)
			}
		}
	}
	// Traced nodes 3 then 1 must lead the packed region.
	base := ds.Layout.FeaturesOff
	if p.NodeOffset(3) != base || p.NodeOffset(1) != base+ds.FeatBytes() {
		t.Fatalf("trace order not honored: off(3)=%d off(1)=%d from base %d", p.NodeOffset(3), p.NodeOffset(1), base)
	}

	// A packed container with its index missing must refuse to load —
	// falling back to strided would silently read permuted garbage.
	if err := os.Remove(path + ".pidx"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, sim.Factory(sim.InstantConfig()), 4096); !errors.Is(err, layout.ErrNoIndex) {
		t.Fatalf("load without index: err = %v, want ErrNoIndex", err)
	}
}
