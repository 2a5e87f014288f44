package gen

import (
	"math"
	"path/filepath"
	"testing"

	"gnndrive/internal/graph"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

func buildTiny(t *testing.T) *graph.Dataset {
	t.Helper()
	ds, err := BuildStandalone(Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	return ds
}

func TestBuildValidates(t *testing.T) {
	ds := buildTiny(t)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	spec := Tiny()
	if int(ds.NumNodes) != spec.Nodes || ds.Dim != spec.Dim || ds.NumClasses != spec.Classes {
		t.Fatalf("shape mismatch: %+v", ds)
	}
	wantEdges := int64(2 * (spec.Nodes - 1) * spec.EdgesPerNode)
	if ds.NumEdges != wantEdges {
		t.Fatalf("edges %d want %d", ds.NumEdges, wantEdges)
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	a := buildTiny(t)
	b := buildTiny(t)
	if a.NumEdges != b.NumEdges {
		t.Fatal("edge counts differ between identical builds")
	}
	for v := int64(0); v < a.NumNodes; v += 97 {
		if a.Indptr[v] != b.Indptr[v] {
			t.Fatalf("indptr[%d] differs", v)
		}
		fa := a.ReadFeatureRaw(v, nil)
		fb := b.ReadFeatureRaw(v, nil)
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("feature[%d][%d] differs", v, j)
			}
		}
	}
}

func TestPowerLawDegreeSkew(t *testing.T) {
	ds := buildTiny(t)
	var maxDeg, sum int64
	for v := int64(0); v < ds.NumNodes; v++ {
		d := ds.Degree(v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(ds.NumNodes)
	if float64(maxDeg) < 5*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f; preferential attachment broken", maxDeg, avg)
	}
}

func TestSplitsDisjointAndSized(t *testing.T) {
	ds := buildTiny(t)
	spec := Tiny()
	if len(ds.TrainIdx) != int(float64(spec.Nodes)*spec.TrainFrac) {
		t.Fatalf("train size %d", len(ds.TrainIdx))
	}
	if len(ds.ValIdx) != int(float64(spec.Nodes)*spec.ValFrac) {
		t.Fatalf("val size %d", len(ds.ValIdx))
	}
	seen := map[int64]bool{}
	for _, v := range ds.TrainIdx {
		if seen[v] {
			t.Fatalf("duplicate train node %d", v)
		}
		seen[v] = true
	}
	for _, v := range ds.ValIdx {
		if seen[v] {
			t.Fatalf("val node %d overlaps train", v)
		}
		seen[v] = true
	}
}

func TestHomophilyBiasesEdges(t *testing.T) {
	ds := buildTiny(t)
	r := graph.NewRawReader(ds)
	var same, total int
	var buf []int32
	for v := int64(0); v < ds.NumNodes; v++ {
		ns, _, err := r.Neighbors(v, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ns {
			total++
			if ds.Labels[u] == ds.Labels[v] {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	// 8 classes at random would give ~0.125; homophily 0.7 must push it
	// far above chance.
	if frac < 0.3 {
		t.Fatalf("same-class edge fraction %.3f; homophily not applied", frac)
	}
}

func TestFeaturesCarryClassSignal(t *testing.T) {
	ds := buildTiny(t)
	// Mean dot-product with own centroid should exceed dot with another
	// class's centroid.
	spec := Tiny()
	dot := func(v int64, c int32) float64 {
		f := ds.ReadFeatureRaw(v, nil)
		cen := Centroid(spec, int(c))
		var s float64
		for j := 0; j < spec.Dim; j++ {
			s += float64(f[j]) * float64(cen[j])
		}
		return s
	}
	var own, other float64
	n := 0
	for v := int64(0); v < 200; v++ {
		own += dot(v, ds.Labels[v])
		other += dot(v, (ds.Labels[v]+1)%int32(spec.Classes))
		n++
	}
	if own/float64(n) < other/float64(n)+0.5 {
		t.Fatalf("features carry no class signal: own=%.2f other=%.2f", own/float64(n), other/float64(n))
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"papers100m-s", "twitter", "friendster-s", "mag240m", "tiny"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestSizeBytesMatchesLayout(t *testing.T) {
	ds := buildTiny(t)
	want := Tiny().SizeBytes()
	got := ds.Layout.IndicesLen + ds.Layout.FeaturesLen
	if math.Abs(float64(want-got)) > float64(want)/50 {
		t.Fatalf("SizeBytes %d vs layout %d", want, got)
	}
}

func TestBuildRejectsTooSmallDevice(t *testing.T) {
	dev := sim.New(1024, sim.InstantConfig())
	defer dev.Close()
	if _, err := Build(Tiny(), dev, 0); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	dev := sim.New(1<<20, sim.InstantConfig())
	defer dev.Close()
	bad := Tiny()
	bad.Classes = 1
	if _, err := Build(bad, dev, 0); err == nil {
		t.Fatal("expected spec error")
	}
}

func TestBuildVerifiedEmitsAdoptableSidecar(t *testing.T) {
	ds, ib, err := BuildVerified(Tiny(), sim.InstantConfig(), integrity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	if ds.Dev != storage.Backend(ib) {
		t.Fatal("dataset device is not the integrity wrapper")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "tiny.gnnd")
	side := out + ".crc"
	if err := graph.Save(ds, out); err != nil {
		t.Fatal(err)
	}
	if err := ib.SaveSidecar(side); err != nil {
		t.Fatal(err)
	}

	// Load the container through an integrity-wrapped factory adopting the
	// sidecar. The load's geometry (exact array sizes + scratch) differs
	// from the build's estimated capacity; the overlapping blocks adopt.
	loaded, err := graph.Load(out, integrity.WrapFactory(sim.Factory(sim.InstantConfig()),
		integrity.Options{SidecarPath: side}), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Dev.Close()
	buf := storage.AlignedBuf(loaded.Dev.SectorSize(), loaded.Dev.SectorSize())
	if _, err := loaded.Dev.ReadAt(buf, loaded.Layout.FeaturesOff); err != nil {
		t.Fatalf("verified feature read: %v", err)
	}
	st := loaded.Dev.(storage.IntegrityStatser).IntegrityStats()
	if st.VerifiedReads == 0 || st.UnverifiedReads != 0 || st.ChecksumFailures != 0 {
		t.Fatalf("loaded dataset reads are not verified: %+v", st)
	}
}
