package main

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
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
