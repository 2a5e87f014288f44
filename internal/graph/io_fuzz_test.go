package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gnndrive/internal/storage/sim"
)

// FuzzLoad feeds arbitrary bytes to Load as a .gnnd container. Every
// input must end in an error or in a dataset that saves and loads back
// identically: the same metadata, host arrays and device regions. No
// input may panic, and none may size an allocation the file cannot back
// (the header check bounds every count by the file's size first). Seeds
// in testdata/fuzz/FuzzLoad: a valid tiny container, a truncated one,
// negative node and train counts, an oversized edge count and an
// out-of-range train ID.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.gnnd")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := Load(in, sim.Factory(sim.InstantConfig()), 0)
		if err != nil {
			return
		}
		defer ds.Dev.Close()
		out := filepath.Join(dir, "out.gnnd")
		if err := Save(ds, out); err != nil {
			t.Fatalf("Save after a successful load: %v", err)
		}
		again, err := Load(out, sim.Factory(sim.InstantConfig()), 0)
		if err != nil {
			t.Fatalf("reloading a saved load: %v", err)
		}
		defer again.Dev.Close()
		if ds.Name != again.Name || ds.NumNodes != again.NumNodes || ds.NumEdges != again.NumEdges ||
			ds.Dim != again.Dim || ds.NumClasses != again.NumClasses || ds.Layout != again.Layout ||
			!slices.Equal(ds.Indptr, again.Indptr) || !slices.Equal(ds.Labels, again.Labels) ||
			!slices.Equal(ds.TrainIdx, again.TrainIdx) || !slices.Equal(ds.ValIdx, again.ValIdx) {
			t.Fatalf("decode not identical after a save round trip")
		}
		end := ds.Layout.FeaturesOff + ds.Layout.FeaturesLen
		a, b := make([]byte, end), make([]byte, end)
		if err := ds.Dev.ReadRaw(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := again.Dev.ReadRaw(b, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("device regions differ after a save round trip")
		}
	})
}
