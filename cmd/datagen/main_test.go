package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

func TestParseArgs(t *testing.T) {
	tiny := gen.Tiny()
	tiny.Dim, tiny.Seed = 16, 9
	cases := []struct {
		name string
		args []string
		want options
	}{
		{
			name: "defaults",
			want: options{spec: gen.Papers(), stats: true, traceModel: nn.GraphSAGE, traceSeed: 1},
		},
		{
			name: "overrides",
			args: []string{"-dataset", "TINY", "-dim", "16", "-seed", "9", "-layout", "packed",
				"-trace-model", "gat", "-trace-batch", "20", "-trace-seed", "3", "-stats=false", "-out", "x.gnnd"},
			want: options{spec: tiny, out: "x.gnnd", packed: true, traceModel: nn.GAT, traceBatch: 20, traceSeed: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
			var f cliFlags
			f.register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := f.lower()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("lower(%q)\n got %+v\nwant %+v", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunRejectsUnknownNames checks that a misspelt name is exit 1,
// reported before any dataset is built.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-layout", "zigzag"},
		{"-trace-model", "mlp"},
		{"-dataset", "cora"},
	} {
		var stdout, stderr strings.Builder
		if code := run(append(args, "-stats=false"), &stdout, &stderr); code != 1 || stderr.Len() == 0 {
			t.Errorf("run(%q) exited %d with stderr %q, want 1 and an error", args, code, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) built something:\n%s", args, &stdout)
		}
	}
}

// TestRunExitCodes: -h is exit 0, and a malformed command line is exit 2.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-bogus"}, 2},
		{[]string{"-dim", "wide"}, 2},
	} {
		var stderr strings.Builder
		if code := run(tc.args, io.Discard, &stderr); code != tc.code {
			t.Errorf("run(%q) exited %d, want %d\nstderr:\n%s", tc.args, code, tc.code, &stderr)
		}
	}
}

// TestRunWritesLoadablePackedContainer runs the command the way a user
// packs a container for gnndrive -load, and loads what it wrote: exactly
// one file, the container, which carries the packed offsets and the
// checksums.
func TestRunWritesLoadablePackedContainer(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tiny.gnnd")
	var stdout, stderr strings.Builder
	if code := run([]string{"-dataset", "tiny", "-layout", "packed", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, &stderr)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "tiny.gnnd" {
		t.Fatalf("the command left %v (%v), want the container alone", ents, err)
	}
	if got := strings.Count(stdout.String(), "wrote "); got != 1 || !strings.Contains(stdout.String(), "wrote "+out) {
		t.Errorf("stdout reports %d writes, want one of %s:\n%s", got, out, stdout.String())
	}
	ds, table, err := graph.Load(out, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	if table == nil {
		t.Fatal("the container carries no checksums")
	}
	if err := ds.Dev.(*integrity.Backend).AdoptChecksums(*table); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Addr.(*layout.Packed); !ok {
		t.Fatalf("loaded addresser is %T, want *layout.Packed", ds.Addr)
	}
	if ds.Name != "tiny" || ds.NumNodes != int64(gen.Tiny().Nodes) {
		t.Fatalf("loaded %s with %d nodes", ds.Name, ds.NumNodes)
	}
}
