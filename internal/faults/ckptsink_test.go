package faults

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnndrive/internal/checkpoint"
)

// The sink must satisfy the checkpoint package's seam.
var _ checkpoint.Sink = (*CkptSink)(nil)

func ckptState(epoch, step int) *checkpoint.RunState {
	return &checkpoint.RunState{
		Fingerprint: 0xfeed, Epoch: epoch, Step: step, Seed: 7, AdamT: step,
		Params: []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{1, 2, 3, float32(step)}}},
		AdamM:  []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{0, 0, 0, 0}}},
		AdamV:  []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{0, 0, 0, 0}}},
	}
}

func visibleCkpts(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestCkptTornWriteLosesNothing(t *testing.T) {
	dir := t.TempDir()
	sink := NewCkptSink()
	sv := &checkpoint.Saver{Dir: dir, Sink: sink}
	if _, err := sv.Save(ckptState(0, 10)); err != nil {
		t.Fatal(err)
	}

	sink.Arm(CkptTornWrite, 0)
	if _, err := sv.Save(ckptState(0, 20)); !errors.Is(err, ErrCkptCrash) {
		t.Fatalf("torn write: err = %v, want ErrCkptCrash", err)
	}
	if got := sink.Injected(); got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
	// The torn temporary must never be visible under a .ckpt name.
	if names := visibleCkpts(t, dir); len(names) != 1 {
		t.Fatalf("visible checkpoints = %v, want just the first", names)
	}
	st, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 10 {
		t.Fatalf("resumed step = %d, want 10", st.Step)
	}
}

func TestCkptFailRenameLosesNothing(t *testing.T) {
	dir := t.TempDir()
	sink := NewCkptSink()
	sv := &checkpoint.Saver{Dir: dir, Sink: sink}
	if _, err := sv.Save(ckptState(0, 10)); err != nil {
		t.Fatal(err)
	}

	sink.Arm(CkptFailRename, 0)
	if _, err := sv.Save(ckptState(0, 20)); !errors.Is(err, ErrCkptCrash) {
		t.Fatalf("failed rename: err = %v, want ErrCkptCrash", err)
	}
	st, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 10 {
		t.Fatalf("resumed step = %d, want 10", st.Step)
	}
}

func TestCkptTruncateTailFallsBack(t *testing.T) {
	dir := t.TempDir()
	sink := NewCkptSink()
	sv := &checkpoint.Saver{Dir: dir, Sink: sink}
	if _, err := sv.Save(ckptState(0, 10)); err != nil {
		t.Fatal(err)
	}

	// The commit appears to succeed; the crash eats the tail afterwards.
	sink.Arm(CkptTruncateTail, 0)
	if _, err := sv.Save(ckptState(0, 20)); err != nil {
		t.Fatalf("truncate-tail save should look successful, got %v", err)
	}
	// The newest file exists but must fail validation...
	if _, err := checkpoint.LoadFile(filepath.Join(dir, checkpoint.FileName(0, 20))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated load: err = %v, want ErrCorrupt", err)
	}
	// ...and LoadLatest must fall back to the previous valid one.
	st, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 10 {
		t.Fatalf("resumed step = %d (from %s), want 10", st.Step, path)
	}
}

func TestCkptArmAfterSkipsOperations(t *testing.T) {
	dir := t.TempDir()
	sink := NewCkptSink()
	sv := &checkpoint.Saver{Dir: dir, Sink: sink}
	// Fire on the second checkpoint write, not the first.
	sink.Arm(CkptTornWrite, 1)
	if _, err := sv.Save(ckptState(0, 10)); err != nil {
		t.Fatalf("first save should pass through, got %v", err)
	}
	if _, err := sv.Save(ckptState(0, 20)); !errors.Is(err, ErrCkptCrash) {
		t.Fatalf("second save: err = %v, want ErrCkptCrash", err)
	}
	// One-shot: disarmed after firing.
	if _, err := sv.Save(ckptState(0, 30)); err != nil {
		t.Fatalf("third save should pass through, got %v", err)
	}
}
