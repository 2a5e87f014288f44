package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gnndrive/internal/checkpoint"
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
	got, table, err := Load(path, sim.Factory(sim.InstantConfig()), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Dev.Close()
	if table != nil {
		t.Fatalf("a device with no checksum table saved one: %+v", table)
	}
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
	if _, _, err := Load(path, sim.Factory(sim.InstantConfig()), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: got %v, want ErrCorrupt", err)
	}
	if _, _, err := Load(filepath.Join(t.TempDir(), "missing"), sim.Factory(sim.InstantConfig()), 0); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: got %v, want an open error", err)
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
	// arrays (everything after the metadata) edited by patch, the host
	// arrays' CRC sealed over the edits, so each edit reaches the check
	// it is aimed at.
	hostStart, hostEnd := hostSpan(valid)
	hostLen := hostEnd - hostStart
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
		sealed := out[len(fileMagic) : len(fileMagic)+8+len(meta)+hostLen]
		binary.LittleEndian.PutUint32(out[len(fileMagic)+8+len(meta)+hostLen:], crc32c(sealed))
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
		"unknown layout": reframe(func(h *header) { h.Layout = "zigzag" }, keep),
		// A packed container without its offsets must not load as
		// strided, which would read permuted features.
		"packed, no offsets":    reframe(func(h *header) { h.Layout = "packed" }, keep),
		"checksums, none saved": reframe(func(h *header) { h.Checksums = true }, keep),
		"truncated":             writeTemp(t, valid[:len(valid)-5]),
		"trailing byte":         writeTemp(t, append(slices.Clip(valid), 0)),
	} {
		if _, _, err := Load(p, sim.Factory(sim.InstantConfig()), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		} else if !strings.HasPrefix(err.Error(), "graph: ") {
			t.Errorf("%s: error %q is not a graph load error", name, err)
		}
	}
	if _, _, err := Load(reframe(func(*header) {}, keep), sim.Factory(sim.InstantConfig()), 0); err != nil {
		t.Fatalf("unedited reframe: %v", err)
	}
}

// TestLoadRejectsHostEdits edits a saved container's header and host
// arrays in place, each edit one a loader would otherwise accept: a class
// count that still covers every label, and one label changed to another
// valid class. The CRC over the header and host arrays must make each a
// load error wrapping ErrCorrupt.
func TestLoadRejectsHostEdits(t *testing.T) {
	ds := buildTestDataset(t)
	path := filepath.Join(t.TempDir(), "x.gnnd")
	if err := Save(ds, path); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, host := hostSpan(valid)
	for name, edit := range map[string]func(b []byte) []byte{
		"num_classes 2 -> 3": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"num_classes":2`), []byte(`"num_classes":3`), 1)
		},
		"one label 0 -> 1": func(b []byte) []byte {
			b[host-4*int(ds.NumNodes)]++ // node 0's label
			return b
		},
	} {
		b := edit(slices.Clone(valid))
		if bytes.Equal(b, valid) {
			t.Fatalf("%s: the edit changed nothing", name)
		}
		_, _, err := Load(writeTemp(t, b), sim.Factory(sim.InstantConfig()), 0)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "CRC") {
			t.Errorf("%s: got %v, want an ErrCorrupt CRC mismatch", name, err)
		}
	}
}

// writeTemp writes data to a new file and returns its path.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "x.gnnd")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

var errStep = errors.New("injected commit failure")

// stepSink is the real filesystem with one commit step failing: "write"
// keeps half of the file's first write, "fsync" tears the file (its bytes
// never became durable), "rename" and "dirsync" fail those calls, the
// last after the rename took effect.
type stepSink struct {
	checkpoint.OSSink
	fail string
}

func (s stepSink) Create(path string) (checkpoint.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return stepFile{f, s.fail}, nil
}

func (s stepSink) Rename(oldpath, newpath string) error {
	if s.fail == "rename" {
		return errStep
	}
	return s.OSSink.Rename(oldpath, newpath)
}

func (s stepSink) SyncDir(dir string) error {
	if s.fail == "dirsync" {
		return errStep
	}
	return s.OSSink.SyncDir(dir)
}

type stepFile struct {
	*os.File
	fail string
}

func (f stepFile) Write(p []byte) (int, error) {
	if f.fail == "write" {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errStep
	}
	return f.File.Write(p)
}

func (f stepFile) Sync() error {
	if f.fail != "fsync" {
		return f.File.Sync()
	}
	// Through the descriptor, so the torn bytes are the ones a crash
	// finds under whichever name the file has by then.
	if fi, err := f.Stat(); err == nil {
		f.Truncate(fi.Size() / 2)
	}
	return errStep
}

// TestSaveReportsWriteFailure fails Save over an existing container at
// each step of its commit. Save must report the failure, no temporary
// may stay behind, and the path must hold the old container or the new
// one, whole: Load returns one of the two datasets, never a mix.
func TestSaveReportsWriteFailure(t *testing.T) {
	oldDS := buildTestDataset(t)
	oldDS.Name = "old"
	newDS := buildTestDataset(t)
	newDS.Name = "new"
	p, err := layout.PackedAt(newDS.Layout.FeaturesOff, int(newDS.FeatBytes()), []int64{96, 64, 32, 0})
	if err != nil {
		t.Fatal(err)
	}
	newDS.Addr = p
	want := map[string][]byte{}
	for name, ds := range map[string]*Dataset{"old": oldDS, "new": newDS} {
		path := filepath.Join(t.TempDir(), name+".gnnd")
		if err := Save(ds, path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = b
	}
	for _, tc := range []struct{ step, left string }{
		{"write", "old"}, {"fsync", "old"}, {"rename", "old"}, {"dirsync", "new"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "x.gnnd")
		if err := Save(oldDS, path); err != nil {
			t.Fatal(err)
		}
		if err := save(newDS, path, stepSink{fail: tc.step}); !errors.Is(err, errStep) {
			t.Fatalf("%s failing: Save returned %v", tc.step, err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
			t.Fatalf("%s failing: directory holds %v (%v), want the container alone", tc.step, ents, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[tc.left]) {
			t.Fatalf("%s failing: the container is not the %s one, whole", tc.step, tc.left)
		}
		ds, _, err := Load(path, sim.Factory(sim.InstantConfig()), 0)
		if err != nil {
			t.Fatalf("%s failing: %v", tc.step, err)
		}
		ds.Dev.Close()
		if ds.Name != tc.left {
			t.Fatalf("%s failing: loaded %q, want %q", tc.step, ds.Name, tc.left)
		}
	}
}

// TestSaveLoadPackedRoundTrip packs the test dataset in place, saves
// the container (which carries the packed offsets), and reloads it: the
// addresser must come back packed with identical node offsets and every
// feature must read back byte-identical through it.
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
	got, _, err := Load(path, sim.Factory(sim.InstantConfig()), 4096)
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

}

// TestSaveWritesOffsetSection pins the offset section's bytes: a packed
// container is the strided one with the section appended — each node's
// offset into the feature region as a u64, then their CRC32C — and Load
// binds those offsets at the loaded region's base.
func TestSaveWritesOffsetSection(t *testing.T) {
	le := binary.LittleEndian
	packed, strided := savedContainer(t, true, false), savedContainer(t, false, false)
	want := []byte{}
	for _, o := range []uint64{96, 64, 32, 0} {
		want = le.AppendUint64(want, o)
	}
	want = le.AppendUint32(want, crc32c(want))
	if !bytes.Equal(afterHost(packed), append(slices.Clip(afterHost(strided)), want...)) {
		t.Fatalf("the packed container is not the strided one plus the offset section %x", want)
	}
	ds, _, err := Load(writeTemp(t, packed), sim.Factory(sim.InstantConfig()), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	p, ok := ds.Addr.(*layout.Packed)
	if !ok {
		t.Fatalf("loaded addresser is %T, want *layout.Packed", ds.Addr)
	}
	for v := range ds.NumNodes {
		if got, w := p.NodeOffset(v), ds.Layout.FeaturesOff+int64(le.Uint64(want[8*v:])); got != w {
			t.Fatalf("node %d at %d, want %d", v, got, w)
		}
	}
}

// TestLoadRejectsCorruptSections flips every byte of a container's offset
// and checksum sections, and cuts the file at every byte inside them:
// each is a load error wrapping ErrCorrupt, never a load of wrong offsets
// or sums.
func TestLoadRejectsCorruptSections(t *testing.T) {
	valid := savedContainer(t, true, true)
	_, off := savedSection(t, true)
	_, tab := savedSection(t, false)
	start := len(valid) - len(off) - len(tab)
	if !bytes.Equal(valid[start:], append(slices.Clip(off), tab...)) {
		t.Fatal("the container does not end in its offset and checksum sections")
	}
	if _, _, err := Load(writeTemp(t, valid), sim.Factory(sim.InstantConfig()), 0); err != nil {
		t.Fatalf("unedited container: %v", err)
	}
	for i := start; i < len(valid); i++ {
		flipped := slices.Clone(valid)
		flipped[i] ^= 0x40
		for what, b := range map[string][]byte{"flipped": flipped, "truncated": valid[:i]} {
			if _, _, err := Load(writeTemp(t, b), sim.Factory(sim.InstantConfig()), 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s at byte %d of %d: got %v, want ErrCorrupt", what, i, len(valid), err)
			}
		}
	}
}
