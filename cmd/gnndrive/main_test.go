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
		name       string
		args       []string
		faults     *faults.Config
		verify     bool
		warning    string // substring of the one expected log line; "" = none
		wantSystem trainsim.SystemKind
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

func TestLowerFlagsRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-model", "nope"},
		{"-system", "nope"},
	} {
		if _, _, _, err := lowerArgs(t, args...); err == nil {
			t.Errorf("%q lowered without error", args)
		}
	}
}
