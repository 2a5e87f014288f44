package serve

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"gnndrive/internal/checkpoint"
)

var errFsync = errors.New("fsync: input/output error")

// failSyncSink is the real filesystem except that fsync fails: the bytes
// reach the file, but the write is reported as not durable.
type failSyncSink struct{ checkpoint.OSSink }

func (failSyncSink) Create(path string) (checkpoint.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return failSyncFile{f}, nil
}

type failSyncFile struct{ *os.File }

func (failSyncFile) Sync() error { return errFsync }

func TestManifestSaveFsyncFailureKeepsPrevious(t *testing.T) {
	s, err := newJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.save(manifest{NextSeq: 1, Jobs: []*JobRecord{{ID: "job-0000", State: StateCompleted}}}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(s.path())
	if err != nil {
		t.Fatal(err)
	}
	s.sink = failSyncSink{}
	next := manifest{NextSeq: 2, Jobs: []*JobRecord{
		{ID: "job-0000", State: StateCompleted},
		{ID: "job-0001", Seq: 1, State: StateQueued},
	}}
	if err := s.save(next); !errors.Is(err, errFsync) {
		t.Fatalf("save with failing fsync: err = %v, want %v", err, errFsync)
	}
	after, err := os.ReadFile(s.path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("manifest changed by a failed save:\n%s\nwant\n%s", after, before)
	}
	if _, err := os.Stat(s.path() + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary left behind: %v", err)
	}
	m, err := s.load()
	if err != nil || m.NextSeq != 1 || len(m.Jobs) != 1 {
		t.Fatalf("load after failed save: %+v, %v", m, err)
	}
}
