package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleState() *RunState {
	return &RunState{
		Fingerprint: 0xdeadbeefcafe,
		Epoch:       3,
		Step:        17,
		Seed:        42,
		AdamT:       1234,
		Params: []Tensor{
			{Name: "conv0.lin", Rows: 4, Cols: 3, Data: seq(12)},
			{Name: "conv1.lin", Rows: 2, Cols: 5, Data: seq(10)},
		},
		AdamM: []Tensor{
			{Name: "conv0.lin", Rows: 4, Cols: 3, Data: seq(12)},
			{Name: "conv1.lin", Rows: 2, Cols: 5, Data: seq(10)},
		},
		AdamV: []Tensor{
			{Name: "conv0.lin", Rows: 4, Cols: 3, Data: seq(12)},
			{Name: "conv1.lin", Rows: 2, Cols: 5, Data: seq(10)},
		},
	}
}

func seq(n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(i)*0.5 - 1
	}
	return d
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	st := sampleState()
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Fingerprint != st.Fingerprint || got.Epoch != st.Epoch || got.Step != st.Step ||
		got.Seed != st.Seed || got.AdamT != st.AdamT {
		t.Fatalf("meta mismatch: %+v vs %+v", got, st)
	}
	for i, p := range st.Params {
		g := got.Params[i]
		if g.Name != p.Name || g.Rows != p.Rows || g.Cols != p.Cols {
			t.Fatalf("param %d header mismatch: %+v vs %+v", i, g, p)
		}
		for j := range p.Data {
			if g.Data[j] != p.Data[j] {
				t.Fatalf("param %d data[%d]: %v vs %v", i, j, g.Data[j], p.Data[j])
			}
		}
	}
	if len(got.AdamM) != 2 || len(got.AdamV) != 2 {
		t.Fatalf("moments lost: %d/%d", len(got.AdamM), len(got.AdamV))
	}
}

func TestCursorOnlyState(t *testing.T) {
	st := &RunState{Fingerprint: 7, Epoch: 1, Step: 0, Seed: 9}
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Epoch != 1 || len(got.Params) != 0 || len(got.AdamM) != 0 {
		t.Fatalf("cursor-only state mangled: %+v", got)
	}
}

// sectionBoundaries returns the byte offsets at which each section of an
// encoded container starts (plus the total length).
func sectionBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	le := binary.LittleEndian
	offs := []int{len(magic) + 4}
	off := len(magic) + 4
	for off < len(data) {
		if off+8 > len(data) {
			t.Fatalf("malformed test container at %d", off)
		}
		n := int(le.Uint32(data[off+4:]))
		off += 8 + n + 4
		offs = append(offs, off)
	}
	return offs
}

// TestTruncationAtEveryBoundary truncates a valid container at every
// section boundary and at offsets inside each section, and asserts Load
// returns a typed corruption error — never a panic or a silent partial
// state.
func TestTruncationAtEveryBoundary(t *testing.T) {
	data := Encode(sampleState())
	cuts := sectionBoundaries(t, data)
	// A few mid-section and mid-header offsets too.
	for _, b := range cuts {
		for _, delta := range []int{0, 1, 5, 9, 13} {
			if cut := b - delta; cut > 0 && cut < len(data) {
				cuts = append(cuts, cut)
			}
		}
	}
	cuts = append(cuts, 1, 4, len(magic), len(magic)+2, len(data)/2, len(data)-1)
	dir := t.TempDir()
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		path := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadFile(path)
		if err == nil {
			t.Fatalf("truncation at %d of %d loaded silently: %+v", cut, len(data), st)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	data := Encode(sampleState())
	// Flip one bit in every region of the file (stride keeps it fast).
	for off := len(magic) + 4; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d not detected", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: got %v, want ErrCorrupt", off, err)
		}
	}
}

func TestSpliceRejected(t *testing.T) {
	// Concatenating a valid file after another valid file must not parse.
	a := Encode(sampleState())
	st2 := sampleState()
	st2.Step = 99
	b := Encode(st2)
	if _, err := Decode(append(append([]byte(nil), a...), b...)); err == nil {
		t.Fatal("spliced container decoded")
	}
}

func TestSaveLoadLatestAndKeep(t *testing.T) {
	dir := t.TempDir()
	s := &Saver{Dir: dir}
	for step := 1; step <= defaultKeep+2; step++ {
		st := sampleState()
		st.Epoch, st.Step = 0, step*10
		if _, err := s.Save(st); err != nil {
			t.Fatalf("Save step %d: %v", step, err)
		}
	}
	names := listCheckpoints(dir)
	if len(names) != defaultKeep {
		t.Fatalf("keep-last-%d left %d files: %v", defaultKeep, len(names), names)
	}
	st, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if want := (defaultKeep + 2) * 10; st.Step != want {
		t.Fatalf("latest step %d, want %d (from %s)", st.Step, want, path)
	}
	if names[0] != FileName(0, 30) {
		t.Fatalf("oldest kept %s, want %s", names[0], FileName(0, 30))
	}
	// No stray tmp files.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadLatestFallsBackOverCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s := &Saver{Dir: dir}
	for step := 1; step <= 3; step++ {
		st := sampleState()
		st.Epoch, st.Step = 0, step
		if _, err := s.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest two ways across two checks: truncate #3, flip #2.
	newest := filepath.Join(dir, FileName(0, 3))
	data, _ := os.ReadFile(newest)
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest after truncation: %v", err)
	}
	if st.Step != 2 {
		t.Fatalf("fell back to step %d (%s), want 2", st.Step, path)
	}
	mid := filepath.Join(dir, FileName(0, 2))
	data, _ = os.ReadFile(mid)
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err = LoadLatest(dir)
	if err != nil {
		t.Fatalf("LoadLatest after bit flip: %v", err)
	}
	if st.Step != 1 {
		t.Fatalf("fell back to step %d, want 1", st.Step)
	}
	// Everything corrupt -> ErrNoCheckpoint.
	oldest := filepath.Join(dir, FileName(0, 1))
	if err := os.WriteFile(oldest, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := Encode(sampleState()), Encode(sampleState())
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}
