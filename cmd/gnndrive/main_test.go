package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/faults"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/trainsim"
)

// lowerArgs parses args as the command line and lowers them, collecting
// every logged line.
func lowerArgs(t *testing.T, args ...string) (trainsim.Config, trainsim.SystemKind, []string, error) {
	t.Helper()
	var f cliFlags
	fs := flag.NewFlagSet("gnndrive", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	var logged []string
	cfg, sys, err := f.lower(func(format string, a ...any) {
		logged = append(logged, fmt.Sprintf(format, a...))
	})
	return cfg, sys, logged, err
}

func TestLowerFlags(t *testing.T) {
	cases := []struct {
		name        string
		args        []string
		faults      *faults.Config
		verify      bool
		warning     string // substring of the one expected log line; "" = none
		wantSystem  trainsim.SystemKind
		wantDataset string // "" = the default, papers100m-s
	}{
		{name: "defaults", wantSystem: trainsim.GNNDriveGPU},
		{
			name:       "verify",
			args:       []string{"-verify", "-system", "cpu"},
			verify:     true,
			wantSystem: trainsim.GNNDriveCPU,
		},
		{
			name: "faults",
			args: []string{"-fault-transient", "0.1", "-fault-short", "0.2",
				"-fault-straggler", "0.3", "-fault-straggler-delay", "2ms",
				"-fault-seed", "7", "-system", "ginex"},
			faults: &faults.Config{Seed: 7, TransientRate: 0.1, ShortReadRate: 0.2,
				StragglerRate: 0.3, StragglerDelay: 2 * time.Millisecond},
			wantSystem: trainsim.Ginex,
		},
		{
			name:       "corrupt with verify",
			args:       []string{"-fault-corrupt", "0.05", "-verify"},
			faults:     &faults.Config{Seed: 1, CorruptRate: 0.05},
			verify:     true,
			wantSystem: trainsim.GNNDriveGPU,
		},
		{
			name:       "corrupt without verify warns",
			args:       []string{"-fault-corrupt", "0.05"},
			faults:     &faults.Config{Seed: 1, CorruptRate: 0.05},
			warning:    "-fault-corrupt without -verify",
			wantSystem: trainsim.GNNDriveGPU,
		},
		// -system takes every name a JobSpec does, in any case.
		{name: "system gpu", args: []string{"-system", "gpu"}, wantSystem: trainsim.GNNDriveGPU},
		{name: "system GNNDrive-CPU", args: []string{"-system", "GNNDrive-CPU"}, wantSystem: trainsim.GNNDriveCPU},
		{name: "system pyg", args: []string{"-system", "pyg"}, wantSystem: trainsim.PyGPlus},
		{name: "system PyG-Plus", args: []string{"-system", "PyG-Plus"}, wantSystem: trainsim.PyGPlus},
		{name: "system Ginex", args: []string{"-system", "Ginex"}, wantSystem: trainsim.Ginex},
		{name: "system MariusGNN", args: []string{"-system", "MariusGNN"}, wantSystem: trainsim.Marius},
		// -dataset takes every name a JobSpec does, in any case.
		{name: "dataset Tiny", args: []string{"-dataset", "Tiny"}, wantSystem: trainsim.GNNDriveGPU, wantDataset: "tiny"},
		{name: "dataset PAPERS100M", args: []string{"-dataset", "PAPERS100M"}, wantSystem: trainsim.GNNDriveGPU},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, sys, logged, err := lowerArgs(t, tc.args...)
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			if sys != tc.wantSystem {
				t.Errorf("system = %v, want %v", sys, tc.wantSystem)
			}
			wantDataset := tc.wantDataset
			if wantDataset == "" {
				wantDataset = "papers100m-s"
			}
			if cfg.Dataset.Name != wantDataset {
				t.Errorf("dataset = %q, want %q", cfg.Dataset.Name, wantDataset)
			}
			if !reflect.DeepEqual(cfg.Faults, tc.faults) {
				t.Errorf("Faults = %+v, want %+v", cfg.Faults, tc.faults)
			}
			switch {
			case !tc.verify && cfg.Integrity != nil:
				t.Errorf("Integrity = %+v without -verify", cfg.Integrity)
			case tc.verify && cfg.Integrity == nil:
				t.Errorf("-verify left Integrity nil")
			case tc.verify:
				// -verify is the zero-value layer plus the command's logger.
				if cfg.Integrity.Logf == nil {
					t.Errorf("-verify left Integrity.Logf nil")
				}
				got := *cfg.Integrity
				got.Logf = nil
				if !reflect.DeepEqual(got, integrity.Options{}) {
					t.Errorf("-verify Integrity = %+v, want the zero value", got)
				}
			}
			if cfg.Logf == nil {
				t.Errorf("Config.Logf nil")
			}
			switch {
			case tc.warning == "" && len(logged) != 0:
				t.Errorf("unexpected log lines %q", logged)
			case tc.warning != "" && (len(logged) != 1 || !strings.Contains(logged[0], tc.warning)):
				t.Errorf("log lines %q, want one containing %q", logged, tc.warning)
			}
		})
	}
}

func TestLowerFlagsCarriesRunShape(t *testing.T) {
	cfg, _, _, err := lowerArgs(t, "-dataset", "tiny", "-model", "gat", "-mem", "8",
		"-dim", "64", "-batch", "32", "-scale", "0.5", "-real", "-inorder",
		"-train-limit", "100", "-hidden", "16", "-seed", "9",
		"-checkpoint-dir", "ckpt", "-checkpoint-every", "4", "-resume",
		"-stall-deadline", "3s", "-backend", "file", "-data-file", "d.img",
		"-layout", "packed", "-load", "x.gnnd")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	want := trainsim.Config{
		Dataset: cfg.Dataset, Model: cfg.Model, Logf: cfg.Logf,
		Dim: 64, HostMemoryGB: 8, BatchSize: 32, Scale: 0.5, RealTrain: true,
		InOrder: true, TrainLimit: 100, Hidden: 16, Seed: 9,
		CheckpointDir: "ckpt", CheckpointEverySteps: 4, Resume: true,
		StallDeadline: 3 * time.Second, Backend: "file", DataFile: "d.img",
		Layout: "packed", LoadFile: "x.gnnd",
	}
	if cfg.Dataset.Name != "tiny" || cfg.Model != nn.GAT {
		t.Errorf("dataset %q model %v, want tiny GAT", cfg.Dataset.Name, cfg.Model)
	}
	cfg.Logf, want.Logf = nil, nil
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("Config = %+v\nwant     %+v", cfg, want)
	}
}

// TestLowerFlagsRejectsBadInput: an unknown name or a value no run can
// honour is an error from lowering, so it never reaches a run that would
// panic on it or silently mis-measure.
func TestLowerFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-model", "nope"},
		{"-system", "nope"},
		{"-backend", "nfs"},
		{"-batch", "-1"},
		{"-mem", "-1"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "1e300"},
		{"-hidden", "-2"},
		{"-dim", "-5"},
		{"-epochs", "-3"},
		{"-epochs", "1001"},
		{"-train-limit", "-1"},
		{"-checkpoint-every", "-2"},
	} {
		if _, _, _, err := lowerArgs(t, args...); err == nil {
			t.Errorf("%q lowered without error", args)
		}
	}
}

// TestRun drives the command end to end: one tiny epoch of each baseline
// through its constructor, one on the file backend, an out-of-range
// value and a run that fails, each an error exit and never a panic.
func TestRun(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{name: "pyg+", args: []string{"-system", "pyg+"}},
		{name: "ginex", args: []string{"-system", "ginex"}},
		{name: "marius", args: []string{"-system", "marius"}},
		{name: "file backend", args: []string{"-backend", "file", "-data-file", filepath.Join(t.TempDir(), "tiny.img")}},
		{name: "negative batch", args: []string{"-batch", "-1"}, code: 1},
		{name: "missing container", args: []string{"-load", filepath.Join(t.TempDir(), "none.gnnd")}, code: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-dataset", "tiny", "-epochs", "1", "-scale", "0.5"}, tc.args...)
			var stdout, stderr strings.Builder
			if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if tc.code != 0 {
				if stderr.Len() == 0 {
					t.Error("error exit printed nothing to stderr")
				}
				return
			}
			if !strings.Contains(stdout.String(), "epoch 0: ") || !strings.Contains(stdout.String(), "average epoch: ") {
				t.Errorf("no epoch report:\n%s", &stdout)
			}
		})
	}
}

// TestRunLoadVerify drives -load -verify on a container saved the way
// cmd/datagen -out saves one. Clean, every read is verified against the
// checksums the container saved; with its checksum section truncated the
// load fails, exit 1, instead of verifying against the container's own
// bytes. A corrupt feature byte is trainsim's
// TestLoadVerifiesAgainstSavedChecksums.
func TestRunLoadVerify(t *testing.T) {
	ds, err := gen.BuildWith(gen.Tiny(), integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.gnnd")
	err = graph.Save(ds, path)
	ds.Dev.Close()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-load", path, "-verify", "-epochs", "1", "-scale", "0.5"}
	var stdout, stderr strings.Builder
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("clean container: exit %d\n%s", code, &stderr)
	}
	if out := stdout.String(); !strings.Contains(out, " unverified=0 ") || strings.Contains(out, "integrity: verified=0 ") {
		t.Fatalf("clean container did not verify every read:\n%s", out)
	}

	// The checksum section ends the container.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "checksum section") {
		t.Fatalf("truncated checksum section: exit %d, want 1 with a checksum section error\nstderr:\n%s", code, &stderr)
	}
}

// crashHelperDir names the environment variable that turns the test
// binary into TestCrashResume's helper process and gives it its
// checkpoint directory.
const crashHelperDir = "GNNDRIVE_CRASH_HELPER_DIR"

// crashArgs is a three-epoch real run that checkpoints every two steps
// into dir.
func crashArgs(dir string) []string {
	return []string{"-dataset", "tiny", "-system", "gnndrive-gpu", "-real", "-inorder",
		"-train-limit", "600", "-epochs", "3", "-scale", "8",
		"-checkpoint-dir", dir, "-checkpoint-every", "2"}
}

// TestCrashHelper is not a test on its own: it is the process
// TestCrashResume starts and SIGKILLs, the test binary re-executed with
// crashHelperDir set.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv(crashHelperDir)
	if dir == "" {
		return
	}
	os.Exit(run(context.Background(), crashArgs(dir), io.Discard, os.Stderr))
}

// TestCrashResume kills a training process without warning once its
// first checkpoint is committed, then resumes it in-process with
// -resume. The resumed run must finish, and its final checkpoint must be
// byte for byte the one an uninterrupted run writes: same weights, same
// optimizer state, same cursor.
func TestCrashResume(t *testing.T) {
	final := checkpoint.FileName(3, 0)
	refDir := t.TempDir()
	var stderr strings.Builder
	if code := run(context.Background(), crashArgs(refDir), io.Discard, &stderr); code != 0 {
		t.Fatalf("uninterrupted run exited %d\n%s", code, &stderr)
	}
	want, err := os.ReadFile(filepath.Join(refDir, final))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	helper := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$")
	helper.Env = append(os.Environ(), crashHelperDir+"="+dir)
	var helperErr strings.Builder
	helper.Stderr = &helperErr
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- helper.Wait() }()
	deadline := time.Now().Add(time.Minute)
	for {
		if ckpts, _ := filepath.Glob(filepath.Join(dir, "run-*.ckpt")); len(ckpts) > 0 {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("helper exited (%v) before its first checkpoint\n%s", err, &helperErr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			helper.Process.Kill()
			t.Fatal("no checkpoint within a minute")
		}
	}
	if err := helper.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	if helper.ProcessState.Exited() {
		t.Fatalf("helper finished on its own (%v); the kill did not land mid-run", helper.ProcessState)
	}
	if _, err := os.Stat(filepath.Join(dir, final)); err == nil {
		t.Fatal("the killed run had already written its final checkpoint")
	}

	stderr.Reset()
	if code := run(context.Background(), append(crashArgs(dir), "-resume"), io.Discard, &stderr); code != 0 {
		t.Fatalf("resumed run exited %d\n%s", code, &stderr)
	}
	got, err := os.ReadFile(filepath.Join(dir, final))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed run's %s differs from the uninterrupted run's", final)
	}
}
