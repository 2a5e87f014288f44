package checkpoint_test

// Every durable file in the tree (run checkpoints, the .gnnd container and
// gnnserved's manifest) commits through checkpoint.Commit. This test
// records every filesystem operation three real writers make, then, for
// every prefix of each log, rebuilds the states a crash at that point can
// leave on disk and runs the file's own loader over each of them, in the
// manner of ALICE (Pillai et al., "All File Systems Are Not Created
// Equal", OSDI 2014).
//
// The crash model: a write or truncation reaches the disk for certain
// only once its file is fsynced, and a directory entry (mkdir, create,
// rename, remove) only once its parent directory is fsynced. A crash
// state keeps everything synced, plus either every unsynced operation,
// none of them, all but one, only one, or all with one unsynced write
// torn in half.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/serve"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/trainsim"
)

type opKind int

const (
	opMkdir   opKind = iota // a new directory entry
	opLink                  // a new file: a new inode under a new name
	opTrunc                 // Create over an existing file truncates its inode
	opWrite                 // an append to an inode
	opSync                  // fsync of an inode
	opClose                 // changes nothing on disk
	opRename                // path's inode moves to to
	opSyncDir               // fsync of a directory
	opRemove                // a name goes
)

// op is one recorded filesystem operation. Paths are relative to the
// recorder's root.
type op struct {
	kind     opKind
	path, to string
	ino      int
	data     []byte
}

func (o op) String() string {
	switch o.kind {
	case opMkdir:
		return "mkdir " + o.path
	case opLink:
		return fmt.Sprintf("create %s (#%d)", o.path, o.ino)
	case opTrunc:
		return fmt.Sprintf("truncate %s (#%d)", o.path, o.ino)
	case opWrite:
		return fmt.Sprintf("write %d B to #%d", len(o.data), o.ino)
	case opSync:
		return fmt.Sprintf("fsync #%d", o.ino)
	case opClose:
		return fmt.Sprintf("close #%d", o.ino)
	case opRename:
		return "rename " + o.path + " to " + o.to
	case opSyncDir:
		return "fsync dir " + o.path
	default:
		return "remove " + o.path
	}
}

// durableAfter reports whether one of later makes o durable: a data
// operation needs its inode's fsync, a directory entry its parent's.
func (o op) durableAfter(later []op) bool {
	entry := o.path
	if o.kind == opRename {
		entry = o.to
	}
	for _, l := range later {
		switch o.kind {
		case opTrunc, opWrite:
			if l.kind == opSync && l.ino == o.ino {
				return true
			}
		default:
			if l.kind == opSyncDir && l.path == filepath.Dir(entry) {
				return true
			}
		}
	}
	return false
}

// recorder is a checkpoint.Sink that passes every operation through to
// the real filesystem under root and logs it.
type recorder struct {
	root string

	mu    sync.Mutex
	ops   []op
	files map[string]int // a file's name → its inode, as the log stands
	inos  int
}

func newRecorder(root string) *recorder {
	return &recorder{root: root, files: map[string]int{}}
}

func (r *recorder) rel(path string) string {
	p, err := filepath.Rel(r.root, path)
	if err != nil || strings.HasPrefix(p, "..") {
		panic(fmt.Sprintf("recorder: %s is outside %s", path, r.root))
	}
	return p
}

// log appends o and returns its inode.
func (r *recorder) log(o op) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch o.kind {
	case opLink:
		r.inos++
		o.ino = r.inos
		r.files[o.path] = o.ino
	case opRename:
		o.ino = r.files[o.path]
		r.files[o.to] = o.ino
		delete(r.files, o.path)
	case opRemove:
		delete(r.files, o.path)
	}
	r.ops = append(r.ops, o)
	return o.ino
}

// mark is the log's length now.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *recorder) Mkdir(path string) error {
	err := os.Mkdir(path, 0o755)
	if err == nil {
		r.log(op{kind: opMkdir, path: r.rel(path)})
	}
	return err
}

func (r *recorder) Create(path string) (checkpoint.File, error) {
	f, err := checkpoint.OSSink{}.Create(path)
	if err != nil {
		return nil, err
	}
	rel := r.rel(path)
	r.mu.Lock()
	ino, exists := r.files[rel]
	r.mu.Unlock()
	kind := opLink
	if exists {
		kind = opTrunc
	}
	return &recFile{File: f, r: r, ino: r.log(op{kind: kind, path: rel, ino: ino})}, nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	if err == nil {
		r.log(op{kind: opRename, path: r.rel(oldpath), to: r.rel(newpath)})
	}
	return err
}

func (r *recorder) SyncDir(dir string) error {
	err := checkpoint.OSSink{}.SyncDir(dir)
	if err == nil {
		r.log(op{kind: opSyncDir, path: r.rel(dir)})
	}
	return err
}

func (r *recorder) Remove(path string) error {
	err := os.Remove(path)
	if err == nil {
		r.log(op{kind: opRemove, path: r.rel(path)})
	}
	return err
}

type recFile struct {
	checkpoint.File
	r   *recorder
	ino int
}

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.r.log(op{kind: opWrite, ino: f.ino, data: bytes.Clone(p[:n])})
	return n, err
}

func (f *recFile) Sync() error {
	err := f.File.Sync()
	if err == nil {
		f.r.log(op{kind: opSync, ino: f.ino})
	}
	return err
}

func (f *recFile) Close() error {
	f.r.log(op{kind: opClose, ino: f.ino})
	return f.File.Close()
}

// crashState is one state a crash after a prefix of the log can leave:
// the unsynced operations in lost never reached the disk, and the write
// torn, if not -1, reached it half written.
type crashState struct {
	desc string
	lost map[int]bool
	torn int
}

// crashStates lists the states a crash after ops[:k] can leave.
func crashStates(ops []op, k int) []crashState {
	var unsynced []int
	for i, o := range ops[:k] {
		switch o.kind {
		case opSync, opClose, opSyncDir:
		default:
			if !o.durableAfter(ops[i+1 : k]) {
				unsynced = append(unsynced, i)
			}
		}
	}
	all := map[int]bool{}
	for _, i := range unsynced {
		all[i] = true
	}
	states := []crashState{{"every unsynced operation reached the disk", nil, -1}}
	if len(unsynced) == 0 {
		return states
	}
	states = append(states, crashState{"no unsynced operation reached the disk", all, -1})
	for _, i := range unsynced {
		states = append(states, crashState{fmt.Sprintf("all but %q reached the disk", ops[i]), map[int]bool{i: true}, -1})
		if len(unsynced) > 1 {
			only := maps.Clone(all)
			delete(only, i)
			states = append(states, crashState{fmt.Sprintf("only %q reached the disk", ops[i]), only, -1})
		}
		if ops[i].kind == opWrite {
			states = append(states, crashState{fmt.Sprintf("%q tore", ops[i]), nil, i})
		}
	}
	return states
}

// materialize writes the crash state s that ops leave into the empty
// directory dst.
func materialize(ops []op, s crashState, dst string) error {
	dirs := map[string]bool{".": true}
	names := map[string]int{}
	data := map[int][]byte{}
	for i, o := range ops {
		if s.lost[i] {
			continue
		}
		switch o.kind {
		case opMkdir:
			dirs[o.path] = true
		case opLink:
			names[o.path] = o.ino
		case opTrunc:
			data[o.ino] = nil
		case opWrite:
			b := o.data
			if i == s.torn {
				b = b[:len(b)/2]
			}
			data[o.ino] = append(data[o.ino], b...)
		case opRename:
			names[o.to] = o.ino
			delete(names, o.path)
		case opRemove:
			delete(names, o.path)
		}
	}
	// A name is on disk only when every directory above it is.
	present := func(d string) bool {
		for ; d != "."; d = filepath.Dir(d) {
			if !dirs[d] {
				return false
			}
		}
		return true
	}
	for d := range dirs {
		if present(d) {
			if err := os.MkdirAll(filepath.Join(dst, d), 0o755); err != nil {
				return err
			}
		}
	}
	for name, ino := range names {
		if present(filepath.Dir(name)) {
			if err := os.WriteFile(filepath.Join(dst, name), data[ino], 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// durableFormat is one durable file's recorded run and its loader.
type durableFormat struct {
	name string
	ops  []op
	// versions are the contents the run committed, in order; marks[i] is
	// the log's length when the i-th commit returned nil.
	versions [][]byte
	marks    []int
	// load runs the format's loader over the crash state in dir and
	// returns the content it recovered, nil for none.
	load func(dir string) ([]byte, error)
}

// TestEveryCrashPointRecovers checks that a crash at any point of any
// commit leaves each durable file loadable, byte for byte as it was
// before the commit or as the commit wrote it, and as the commit wrote it
// once Commit has returned nil.
func TestEveryCrashPointRecovers(t *testing.T) {
	for _, f := range []struct {
		name   string
		record func(t *testing.T) durableFormat
	}{
		{"checkpoint", recordSaver},
		{"container", recordContainer},
		{"manifest", recordManifest},
	} {
		t.Run(f.name, func(t *testing.T) { checkEveryCrashState(t, f.record(t)) })
	}
}

func checkEveryCrashState(t *testing.T, f durableFormat) {
	scratch := t.TempDir()
	checked := 0
	for k := 0; k <= len(f.ops); k++ {
		done := 0
		for done < len(f.marks) && f.marks[done] <= k {
			done++
		}
		var want [][]byte // the old content, then the new one
		if done == 0 {
			want = append(want, nil)
		} else {
			want = append(want, f.versions[done-1])
		}
		if done < len(f.versions) {
			want = append(want, f.versions[done])
		}
		for _, s := range crashStates(f.ops, k) {
			dir := filepath.Join(scratch, strconv.Itoa(checked))
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := materialize(f.ops[:k], s, dir); err != nil {
				t.Fatal(err)
			}
			got, err := loadSafely(f.load, dir)
			if err == nil && !slices.ContainsFunc(want, func(w []byte) bool { return bytes.Equal(w, got) }) {
				err = fmt.Errorf("recovered %s, want %s", f.describe(got), f.describeAll(want))
			}
			if err != nil {
				t.Fatalf("%s: crash after operation %d of %d (%s), %s: %v",
					f.name, k, len(f.ops), lastOp(f.ops[:k]), s.desc, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			checked++
		}
	}
	t.Logf("%s: %d operations, %d commits, %d crash states checked", f.name, len(f.ops), len(f.versions), checked)
}

// loadSafely turns a loader's panic into an error.
func loadSafely(load func(string) ([]byte, error), dir string) (got []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("loader panicked: %v", p)
		}
	}()
	return load(dir)
}

func lastOp(ops []op) string {
	if len(ops) == 0 {
		return "before the first"
	}
	return ops[len(ops)-1].String()
}

func (f durableFormat) describe(b []byte) string {
	if b == nil {
		return "nothing"
	}
	for i, v := range f.versions {
		if bytes.Equal(b, v) {
			return fmt.Sprintf("commit %d's content", i+1)
		}
	}
	return fmt.Sprintf("%d bytes that no commit wrote", len(b))
}

func (f durableFormat) describeAll(bs [][]byte) string {
	var s []string
	for _, b := range bs {
		s = append(s, f.describe(b))
	}
	return strings.Join(s, " or ")
}

// readIfExists returns path's bytes, or nil when there is no such file.
func readIfExists(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return b, err
}

// writeBytes is a Commit write function for b.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// recordSaver runs a Saver, into a directory it must create, for enough
// saves to prune past its keep-3.
func recordSaver(t *testing.T) durableFormat {
	rec := newRecorder(t.TempDir())
	sv := &checkpoint.Saver{Dir: filepath.Join(rec.root, "run", "ckpt"), Sink: rec}
	f := durableFormat{name: "checkpoint", load: loadCheckpoint}
	for i := 1; i <= 5; i++ {
		st := &checkpoint.RunState{Fingerprint: 0xfeed, Epoch: i / 2, Step: 10 * i, Seed: 7, AdamT: i,
			Params: []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{1, 2, 3, float32(i)}}},
			AdamM:  []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{0, 0, 0, float32(i)}}},
			AdamV:  []checkpoint.Tensor{{Name: "w", Rows: 2, Cols: 2, Data: []float32{0, 0, float32(i), 0}}},
		}
		if _, err := sv.Save(st); err != nil {
			t.Fatal(err)
		}
		f.versions = append(f.versions, checkpoint.Encode(st))
		f.marks = append(f.marks, rec.mark())
	}
	f.ops = rec.ops
	return f
}

// loadCheckpoint resumes from the newest checkpoint. Every file under a
// .ckpt name must validate: a torn temporary never takes one.
func loadCheckpoint(dir string) ([]byte, error) {
	dir = filepath.Join(dir, "run", "ckpt")
	names, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	for _, n := range names {
		if _, err := checkpoint.LoadFile(n); err != nil {
			return nil, fmt.Errorf("a file under a .ckpt name does not load: %w", err)
		}
	}
	st, _, err := checkpoint.LoadLatest(dir)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(st), nil
}

// recordContainer commits the bytes graph.Save writes for the tiny
// dataset with checksums, first strided and then packed.
func recordContainer(t *testing.T) durableFormat {
	ds, err := gen.BuildWith(gen.Tiny(), integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	f := durableFormat{name: "container", load: loadContainer}
	saved := filepath.Join(t.TempDir(), "saved.gnnd")
	for packed := range 2 {
		if packed == 1 {
			if err := trainsim.PackDataset(ds, trainsim.Config{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := graph.Save(ds, saved); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(saved)
		if err != nil {
			t.Fatal(err)
		}
		f.versions = append(f.versions, b)
	}
	rec := newRecorder(t.TempDir())
	for _, v := range f.versions {
		if err := checkpoint.Commit(rec, filepath.Join(rec.root, "tiny.gnnd"), writeBytes(v)); err != nil {
			t.Fatal(err)
		}
		f.marks = append(f.marks, rec.mark())
	}
	f.ops = rec.ops
	return f
}

func loadContainer(dir string) ([]byte, error) {
	path := filepath.Join(dir, "tiny.gnnd")
	b, err := readIfExists(path)
	if b == nil || err != nil {
		return nil, err
	}
	ds, table, err := graph.Load(path, sim.Factory(sim.InstantConfig()), 0)
	if err != nil {
		return nil, err
	}
	ds.Dev.Close()
	if table == nil {
		return nil, errors.New("loaded no checksum table")
	}
	return b, nil
}

// recordManifest commits, into a state directory it must create, the
// manifests a real daemon wrote: when it started and once one tiny job
// had completed.
func recordManifest(t *testing.T) durableFormat {
	ctx := context.Background()
	state := t.TempDir()
	manifest := filepath.Join(state, "manifest.json")
	d, err := serve.NewDaemon(serve.Config{BaseContext: ctx, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f := durableFormat{name: "manifest", load: restartDaemon}
	read := func() {
		b, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		f.versions = append(f.versions, b)
	}
	read()
	id, err := d.Submit(trainsim.JobSpec{Dataset: "tiny", System: "gnndrive-gpu", Epochs: 1,
		BatchSize: 20, TrainLimit: 60, Hidden: 16, Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := d.WaitJob(ctx, id); err != nil || j.State != serve.StateCompleted {
		t.Fatalf("job ended %s (%v, %q)", j.State, err, j.Error)
	}
	// The job's last persist is on disk once Close has returned.
	d.Close()
	read()

	rec := newRecorder(t.TempDir())
	dir := filepath.Join(rec.root, "state")
	if err := checkpoint.MkdirAll(rec, dir); err != nil {
		t.Fatal(err)
	}
	for _, v := range f.versions {
		if err := checkpoint.Commit(rec, filepath.Join(dir, "manifest.json"), writeBytes(v)); err != nil {
			t.Fatal(err)
		}
		f.marks = append(f.marks, rec.mark())
	}
	f.ops = rec.ops
	return f
}

// restartDaemon restarts a daemon over the state directory, which must
// come back with the jobs its manifest records.
func restartDaemon(dir string) ([]byte, error) {
	dir = filepath.Join(dir, "state")
	b, err := readIfExists(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	d, err := serve.NewDaemon(serve.Config{BaseContext: context.Background(), StateDir: dir})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	var m struct{ Jobs []serve.JobRecord }
	if b != nil {
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, err
		}
	}
	if got := d.Jobs(); len(got) != len(m.Jobs) || len(got) > 0 && !reflect.DeepEqual(got, m.Jobs) {
		return nil, fmt.Errorf("restarted with jobs %+v, want %+v", got, m.Jobs)
	}
	return b, nil
}
