package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/faults"
	"gnndrive/internal/serve"
	"gnndrive/internal/trainsim"
)

// envelope fits exactly two tiny jobs with queueing off, so a third
// submit is a 429. The feature budget decides it (256000 feature bytes a
// job); the 2 MiB staging pool holds 32 of their 128-unit quotas.
var envelope = []string{"-addr", "127.0.0.1:0",
	"-staging-bytes", "2097152", "-feature-budget", "600000",
	"-io-tokens", "128", "-max-queued=-1", "-max-requeues=-1"}

// stepsPerEpoch is spec's TrainLimit over its BatchSize.
const stepsPerEpoch = 10

// spec is a small real-training job, slow enough per epoch that a drain
// lands mid-run.
func spec(seed uint64, epochs int) trainsim.JobSpec {
	return trainsim.JobSpec{Dataset: "tiny", System: "gnndrive-gpu", Epochs: epochs,
		BatchSize: 20, TrainLimit: 200, Hidden: 16, Scale: 4, Seed: seed}
}

// syncBuffer is an io.Writer the command writes from its goroutines while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one in-process run of the command.
type daemon struct {
	base   string // http://host:port of the bound listener
	cancel context.CancelFunc
	done   chan int
	once   sync.Once
	code   int
}

// startDaemon runs the command with args and waits for it to log its
// bound address. The test's cleanup stops it if the test has not.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	return startWith(t, fmt.Sprintf("%q", args), func(ctx context.Context, stdout, stderr io.Writer) int {
		return run(ctx, args, stdout, stderr)
	})
}

// startWith runs start, the command or its serveOn half, as startDaemon
// runs the command; name labels its output when the test fails.
func startWith(t *testing.T, name string, start func(ctx context.Context, stdout, stderr io.Writer) int) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, done: make(chan int, 1)}
	var stdout, stderr syncBuffer
	go func() { d.done <- start(ctx, &stdout, &stderr) }()
	t.Cleanup(func() {
		d.stop()
		if t.Failed() {
			t.Logf("gnnserved %s\nstdout:\n%s\nstderr:\n%s", name, &stdout, &stderr)
		}
	})
	const marker = "listening on "
	waitFor(t, "the bound address", func() bool {
		select {
		case code := <-d.done:
			d.done <- code
			t.Fatalf("gnnserved exited %d before listening\nstderr:\n%s", code, &stderr)
		default:
		}
		out := stdout.String()
		i := strings.Index(out, marker)
		if i < 0 {
			return false
		}
		addr, _, _ := strings.Cut(out[i+len(marker):], ",")
		d.base = "http://" + addr
		return true
	})
	return d
}

// stop cancels the run's ctx, the path SIGTERM takes, and returns its
// exit status.
func (d *daemon) stop() int {
	d.once.Do(func() {
		d.cancel()
		d.code = <-d.done
	})
	return d.code
}

var client = &http.Client{Timeout: 10 * time.Second}

// getJSON decodes the body of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// submit posts s and returns the status code and, on 201, the record.
func submit(t *testing.T, base string, s trainsim.JobSpec) (int, serve.JobRecord) {
	t.Helper()
	body, _ := json.Marshal(s)
	resp, err := client.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec serve.JobRecord
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, rec
}

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readManifest returns the job records the daemon persisted in state.
func readManifest(t *testing.T, state string) []serve.JobRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(state, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Jobs []serve.JobRecord `json:"jobs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.Jobs
}

// TestRunDrainsAndResumes is the daemon's lifecycle through its command
// line: two jobs fill the envelope and a third is a 429; cancelling the
// run mid-job drains it to exit 0 with both jobs in the manifest; a second
// run over the same -state resumes both to completion. Bit-identity of
// the resumed trajectories is serve's TestDrainResumeBitIdentical.
func TestRunDrainsAndResumes(t *testing.T) {
	// Epoch 0 fills the feature buffer and takes most of a job's time;
	// the later ones are short, so eight epochs keep a drain that lands
	// after epoch 0 mid-run.
	const epochs = 8
	state := t.TempDir()
	args := append([]string{"-state", state}, envelope...)

	d := startDaemon(t, args...)
	for i, seed := range []uint64{7, 11} {
		code, rec := submit(t, d.base, spec(seed, epochs))
		if want := fmt.Sprintf("job-%04d", i); code != http.StatusCreated || rec.ID != want {
			t.Fatalf("submit %d: %d %q, want 201 %q", i, code, rec.ID, want)
		}
	}
	if code, _ := submit(t, d.base, spec(13, epochs)); code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", code)
	}
	waitFor(t, "job-0000's first epoch", func() bool {
		var rec serve.JobRecord
		getJSON(t, d.base+"/jobs/job-0000", &rec)
		return len(rec.Epochs) >= 1
	})
	if code := d.stop(); code != 0 {
		t.Fatalf("drained run exited %d, want 0", code)
	}
	jobs := readManifest(t, state)
	if len(jobs) != 2 {
		t.Fatalf("manifest holds %d jobs, want 2", len(jobs))
	}
	switch jobs[0].State {
	case serve.StateInterrupted:
	case serve.StateCompleted:
		t.Fatal("job-0000 completed before the drain; slow the spec down")
	default:
		t.Fatalf("job-0000 after drain: %s, want interrupted", jobs[0].State)
	}

	d = startDaemon(t, args...)
	var recs []serve.JobRecord
	waitFor(t, "both jobs to complete", func() bool {
		getJSON(t, d.base+"/jobs", &recs)
		for _, rec := range recs {
			if rec.State.Terminal() && rec.State != serve.StateCompleted {
				t.Fatalf("%s ended %s: %s", rec.ID, rec.State, rec.Error)
			}
		}
		return len(recs) == 2 && recs[0].State == serve.StateCompleted && recs[1].State == serve.StateCompleted
	})
	// The resumed epoch records only its post-checkpoint steps, so at
	// most one epoch per job may hold fewer than a full epoch's.
	for _, rec := range recs {
		if len(rec.Epochs) != epochs {
			t.Fatalf("%s recorded %d epochs, want %d", rec.ID, len(rec.Epochs), epochs)
		}
		partial := 0
		for _, e := range rec.Epochs {
			n := len(e.StepLosses)
			if n < 1 || n > stepsPerEpoch {
				t.Fatalf("%s epoch %d has %d step losses, want 1..%d", rec.ID, e.Epoch, n, stepsPerEpoch)
			}
			if n < stepsPerEpoch {
				partial++
			}
		}
		if partial > 1 {
			t.Fatalf("%s has %d partial epochs, want at most 1", rec.ID, partial)
		}
	}
	if code := d.stop(); code != 0 {
		t.Fatalf("second run exited %d, want 0", code)
	}
}

// TestDrainCheckpointsMidEpoch: a drain that lands inside an epoch
// leaves that epoch's cursor on disk, at a step above 0, so the restarted
// job retrains none of the steps it had done. The fault injector holds
// the job inside epoch 0: every read is a straggler, so each step takes
// tens of milliseconds and the drain, sent after the first step, lands
// with most of the epoch to go. The spec saves at epoch boundaries only,
// so a step above 0 can come only from the drain's demand save.
func TestDrainCheckpointsMidEpoch(t *testing.T) {
	state := t.TempDir()
	fs := flag.NewFlagSet("gnnserved", flag.ContinueOnError)
	var f daemonFlags
	f.register(fs)
	if err := fs.Parse(append([]string{"-state", state}, envelope...)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	var ckptDir string // read after stop, which waits for the job
	d := startWith(t, "serveOn", func(ctx context.Context, stdout, stderr io.Writer) int {
		logger := log.New(stderr, "", 0)
		cfg := f.lower(logger.Printf)
		cfg.Hook = func(_ string, c *trainsim.Config) {
			c.Faults = &faults.Config{Seed: 1, StragglerRate: 1, StragglerDelay: 5 * time.Millisecond}
			ckptDir = c.CheckpointDir
		}
		return serveOn(ctx, ln, cfg, stdout, logger)
	})
	if code, _ := submit(t, d.base, spec(7, 2)); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job-0000's first step", func() bool {
		var rep struct {
			Jobs map[string]struct {
				Batches int `json:"batches"`
			} `json:"jobs"`
		}
		getJSON(t, d.base+"/metrics", &rep)
		return rep.Jobs["job-0000"].Batches >= 1
	})
	if code := d.stop(); code != 0 {
		t.Fatalf("drained run exited %d, want 0", code)
	}
	jobs := readManifest(t, state)
	if len(jobs) != 1 || jobs[0].State != serve.StateInterrupted || len(jobs[0].Epochs) != 0 {
		t.Fatalf("manifest after the drain holds %+v, want one job interrupted in epoch 0", jobs)
	}
	st, path, err := checkpoint.LoadLatest(ckptDir)
	if err != nil {
		t.Fatalf("no checkpoint after the drain: %v", err)
	}
	if st.Epoch != 0 || st.Step == 0 || st.Step >= stepsPerEpoch {
		t.Fatalf("drain left %s at cursor (%d, %d), want a step inside epoch 0", path, st.Epoch, st.Step)
	}
}

// stateFiles lists every file under dir with its size.
func stateFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	files := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err != nil {
			return err
		}
		files[path] = fi.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRunBindsBeforeResuming: a second gnnserved over a -state whose
// port another process holds exits 1 without touching the state. Were
// it to start the daemon first, it would resume the state's jobs and
// rewrite the manifest before its listen failed.
func TestRunBindsBeforeResuming(t *testing.T) {
	state := t.TempDir()
	args := append([]string{"-state", state}, envelope...)
	d := startDaemon(t, args...)
	if code, _ := submit(t, d.base, spec(7, 50)); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job-0000's first epoch", func() bool {
		var rec serve.JobRecord
		getJSON(t, d.base+"/jobs/job-0000", &rec)
		return len(rec.Epochs) >= 1
	})
	if code := d.stop(); code != 0 {
		t.Fatalf("drained run exited %d, want 0", code)
	}
	if jobs := readManifest(t, state); len(jobs) != 1 || jobs[0].State != serve.StateInterrupted {
		t.Fatalf("seeded state holds %+v, want one interrupted job", jobs)
	}
	// A commit renames a new file over the manifest, so even a rewrite
	// of the same bytes is a different file. Holding the original open
	// keeps its inode from being reused by that new file.
	manifest := filepath.Join(state, "manifest.json")
	orig, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	before, err := orig.Stat()
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes, _ := os.ReadFile(manifest)
	beforeFiles := stateFiles(t, state)

	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	// A run that did not fail would drain when ctx expires and exit 0.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr strings.Builder
	if code := run(ctx, append(args, "-addr", held.Addr().String()), io.Discard, &stderr); code != 1 {
		t.Fatalf("run on a held port exited %d, want 1\nstderr:\n%s", code, &stderr)
	}
	after, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	afterBytes, _ := os.ReadFile(manifest)
	if !os.SameFile(before, after) || string(afterBytes) != string(beforeBytes) {
		t.Fatalf("the failed run rewrote the manifest:\n%s\nwas\n%s", afterBytes, beforeBytes)
	}
	if afterFiles := stateFiles(t, state); !reflect.DeepEqual(afterFiles, beforeFiles) {
		t.Fatalf("the failed run changed the state dir:\n%v\nwas\n%v", afterFiles, beforeFiles)
	}
}

// TestLowerFlags: every flag lands in its serve.Config field, and a
// negative value passes through, where serve reads it as "disabled"
// rather than as the default a zero would take.
func TestLowerFlags(t *testing.T) {
	const defState = "gnnserved-state"
	cases := []struct {
		name string
		args []string
		addr string // "" = the default, :8080
		want serve.Config
	}{
		{name: "defaults", want: serve.Config{StateDir: defState}},
		{name: "addr", args: []string{"-addr", "127.0.0.1:0"}, addr: "127.0.0.1:0", want: serve.Config{StateDir: defState}},
		{name: "state", args: []string{"-state", "s"}, want: serve.Config{StateDir: "s"}},
		{name: "staging-bytes", args: []string{"-staging-bytes", "4096"}, want: serve.Config{StateDir: defState, StagingSlots: 8, SlotBytes: 512}},
		{name: "staging-bytes in whole units", args: []string{"-staging-bytes", "1500"}, want: serve.Config{StateDir: defState, StagingSlots: 2, SlotBytes: 512}},
		{name: "feature-budget", args: []string{"-feature-budget", "600000"}, want: serve.Config{StateDir: defState, FeatureBudgetBytes: 600_000}},
		{name: "io-tokens", args: []string{"-io-tokens", "5"}, want: serve.Config{StateDir: defState, IOTokens: 5}},
		{name: "max-queued", args: []string{"-max-queued", "6"}, want: serve.Config{StateDir: defState, MaxQueued: 6}},
		{name: "max-requeues", args: []string{"-max-requeues", "7"}, want: serve.Config{StateDir: defState, MaxRequeues: 7}},
		{name: "drain-grace", args: []string{"-drain-grace", "3s"}, want: serve.Config{StateDir: defState, DrainGrace: 3 * time.Second}},
		{name: "stall-deadline", args: []string{"-stall-deadline", "2s"}, want: serve.Config{StateDir: defState, StallDeadline: 2 * time.Second}},
		{name: "max-queued -1 disables queueing", args: []string{"-max-queued=-1"}, want: serve.Config{StateDir: defState, MaxQueued: -1}},
		{name: "max-requeues -1 disables requeues", args: []string{"-max-requeues=-1"}, want: serve.Config{StateDir: defState, MaxRequeues: -1}},
		{name: "stall-deadline -1s disables the watchdog", args: []string{"-stall-deadline=-1s"}, want: serve.Config{StateDir: defState, StallDeadline: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("gnnserved", flag.ContinueOnError)
			var f daemonFlags
			f.register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			wantAddr := tc.addr
			if wantAddr == "" {
				wantAddr = ":8080"
			}
			if f.addr != wantAddr {
				t.Errorf("addr = %q, want %q", f.addr, wantAddr)
			}
			cfg := f.lower(t.Logf)
			if cfg.BaseContext == nil || cfg.Logf == nil {
				t.Fatalf("BaseContext %v, Logf nil: %v", cfg.BaseContext, cfg.Logf == nil)
			}
			cfg.BaseContext, cfg.Logf = nil, nil
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Errorf("Config = %+v\nwant     %+v", cfg, tc.want)
			}
		})
	}
}

// TestRunExitCodes: -h is exit 0 and an unknown or malformed flag exit 2,
// all before anything is bound or started.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-max-queued", "many"}, 2},
		{[]string{"-staging-bytes", "100"}, 2},
	} {
		var stderr strings.Builder
		if code := run(context.Background(), tc.args, io.Discard, &stderr); code != tc.code {
			t.Errorf("run(%q) exited %d, want %d\nstderr:\n%s", tc.args, code, tc.code, &stderr)
		}
	}
}
