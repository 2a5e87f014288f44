package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
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

// goldenState is a fixed multi-tensor state whose data holds every kind
// of float32 bit pattern: signed zeros, infinities, NaNs of either sign,
// subnormals and the extremes, then pseudo-random values.
func goldenState() *RunState {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.MaxFloat32, -math.SmallestNonzeroFloat32}
	tensor := func(name string, rows, cols int, salt uint32) Tensor {
		d := make([]float32, rows*cols)
		x := salt*2654435761 + 1
		for i := range d {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			d[i] = float32(int32(x)) / (1 << 24)
		}
		copy(d, specials)
		return Tensor{Name: name, Rows: rows, Cols: cols, Data: d}
	}
	st := &RunState{Fingerprint: 0x0123456789abcdef, Epoch: 7, Step: 93, Seed: 1 << 40, AdamT: 4242}
	for i, shape := range [][2]int{{17, 33}, {64, 16}, {1, 40}, {0, 5}} {
		name := fmt.Sprintf("conv%d.lin", i)
		st.Params = append(st.Params, tensor(name, shape[0], shape[1], uint32(3*i+1)))
		st.AdamM = append(st.AdamM, tensor(name, shape[0], shape[1], uint32(3*i+2)))
		st.AdamV = append(st.AdamV, tensor(name, shape[0], shape[1], uint32(3*i+3)))
	}
	return st
}

// TestEncodeGolden pins the container's bytes: the hash was recorded from
// the encoder that wrote one section buffer at a time, so checkpoints
// already on disk and those written now are the same format, byte for
// byte.
func TestEncodeGolden(t *testing.T) {
	const (
		wantLen  = 19884
		wantHash = "43a39765757356f723dc98ba8433c78bbc7170aaed939688b25808b97f608c99"
	)
	b := Encode(goldenState())
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); len(b) != wantLen || got != wantHash {
		t.Fatalf("Encode: %d bytes, sha256 %s; want %d bytes, %s", len(b), got, wantLen, wantHash)
	}
	if n := encodedSize(goldenState()); n != len(b) {
		t.Fatalf("encodedSize %d, Encode wrote %d bytes", n, len(b))
	}
}

// TestEncodeZeroAlloc: re-encoding into a buffer that already holds a
// container of the same size allocates nothing, which is what lets a
// Saver reuse one buffer across saves.
func TestEncodeZeroAlloc(t *testing.T) {
	st := goldenState()
	buf := appendEncoded(nil, st)
	want := append([]byte(nil), buf...)
	if allocs := testing.AllocsPerRun(20, func() { buf = appendEncoded(buf[:0], st) }); allocs != 0 {
		t.Fatalf("re-encoding allocated %v times", allocs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("re-encoding into a warm buffer changed the bytes")
	}
}

// TestSaverStartCommitsInOrder: Start returns before its commit is
// durable, Wait reports it, a second Start waits for the first commit and
// returns its outcome, and the files land in the order started.
func TestSaverStartCommitsInOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	s := &Saver{Dir: dir}
	st := sampleState()
	st.Step = 1
	if path, err := s.Start(st); path != "" || err != nil {
		t.Fatalf("first Start reported (%q, %v), want nothing in flight", path, err)
	}
	// The saver encoded st during Start, so changing it now must not
	// reach the file.
	st.Params[0].Data[0] = 99
	st.Step = 2
	path, err := s.Start(st)
	if err != nil || path != filepath.Join(dir, FileName(3, 1)) {
		t.Fatalf("second Start reported (%q, %v), want the first commit", path, err)
	}
	if path, err = s.Wait(); err != nil || path != filepath.Join(dir, FileName(3, 2)) {
		t.Fatalf("Wait: (%q, %v)", path, err)
	}
	if path, err = s.Wait(); path != "" || err != nil {
		t.Fatalf("Wait with nothing in flight: (%q, %v)", path, err)
	}
	first, err := LoadFile(filepath.Join(dir, FileName(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Params[0].Data[0]; got != sampleState().Params[0].Data[0] {
		t.Fatalf("first checkpoint holds %v, written after Start returned", got)
	}
}

// TestSaverReportsCommitError: a failed commit is Wait's error, and the
// Saver commits again afterwards.
func TestSaverReportsCommitError(t *testing.T) {
	dir := t.TempDir()
	s := &Saver{Dir: dir, Sink: failingSink{}}
	s.Start(sampleState())
	if _, err := s.Wait(); !errors.Is(err, errSinkFailed) {
		t.Fatalf("Wait: %v, want the sink's error", err)
	}
	s.Sink = nil
	if _, err := s.Save(sampleState()); err != nil {
		t.Fatalf("Save after a failed commit: %v", err)
	}
	if _, err := (&Saver{}).Save(sampleState()); err == nil {
		t.Fatal("a Saver without a Dir saved")
	}
}

var errSinkFailed = errors.New("sink failed")

// failingSink fails every file it is asked to create.
type failingSink struct{ OSSink }

func (failingSink) Create(string) (File, error) { return nil, errSinkFailed }
