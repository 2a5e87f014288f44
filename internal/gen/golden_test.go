package gen

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"gnndrive/internal/graph"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

// goldenHashes is the FNV-64a of everything a build produces: the full
// device image, the labels, both splits and — through the integrity
// wrapper — the saved sidecar table. The values were recorded from the
// commit before writeFeatures went parallel; a change to any of them
// means generation is no longer byte-identical and every recorded loss
// trajectory downstream moves with it.
type goldenHashes struct{ image, labels, train, val, sidecar string }

var golden = map[string]goldenHashes{
	"tiny": {
		image:   "8eef006727cb05ec",
		labels:  "2d20d0d2b9edb0e1",
		train:   "2fe2508e475cdba0",
		val:     "f3c81bb5c9359f60",
		sidecar: "bc034071f2ba57cc",
	},
	"papers100m-s": {
		image:   "0bc58deb4dbc4c28",
		labels:  "3914bef453f5426b",
		train:   "5fb308c3b27ffaa3",
		val:     "24892ce93b85c37f",
		sidecar: "db2405519dc19c8c",
	},
}

func sum64(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

func hashImage(t *testing.T, dev storage.Backend) string {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, 1<<20)
	for off := int64(0); off < dev.Capacity(); off += int64(len(buf)) {
		p := buf
		if rest := dev.Capacity() - off; rest < int64(len(p)) {
			p = p[:rest]
		}
		if err := dev.ReadRaw(p, off); err != nil {
			t.Fatalf("read image at %d: %v", off, err)
		}
		h.Write(p)
	}
	return sum64(h)
}

func hashInts[T int32 | int64](v []T) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		h.Write(b[:])
	}
	return sum64(h)
}

func hashesOf(t *testing.T, ds *graph.Dataset) goldenHashes {
	t.Helper()
	return goldenHashes{
		image:  hashImage(t, ds.Dev),
		labels: hashInts(ds.Labels),
		train:  hashInts(ds.TrainIdx),
		val:    hashInts(ds.ValIdx),
	}
}

func TestGoldenImage(t *testing.T) {
	for _, spec := range []Spec{Tiny(), Papers()} {
		want := golden[spec.Name]
		t.Run(spec.Name+"/sim", func(t *testing.T) {
			ds, err := BuildStandalone(spec, sim.InstantConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()
			got := hashesOf(t, ds)
			got.sidecar = want.sidecar
			if got != want {
				t.Fatalf("build is not byte-identical:\n got %+v\nwant %+v", got, want)
			}
		})
		t.Run(spec.Name+"/verified", func(t *testing.T) {
			ds, ib, err := BuildVerified(spec, sim.InstantConfig(), integrity.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()
			got := hashesOf(t, ds)
			side := filepath.Join(t.TempDir(), "image.crc")
			if err := ib.SaveSidecar(side); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(b)
			got.sidecar = sum64(h)
			if got != want {
				t.Fatalf("verified build is not byte-identical:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
