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
// wrapper — the checksum section a saved container carries (its block
// size, block count, states, sums and CRC). The values were recorded from
// the commit before writeFeatures went parallel, the checksum section's
// when the table moved into the container; a change to any of them means
// generation is no longer byte-identical and every recorded loss
// trajectory downstream moves with it.
type goldenHashes struct{ image, labels, train, val, checksums string }

var golden = map[string]goldenHashes{
	"tiny": {
		image:     "8eef006727cb05ec",
		labels:    "2d20d0d2b9edb0e1",
		train:     "2fe2508e475cdba0",
		val:       "f3c81bb5c9359f60",
		checksums: "ab45b4c69f2f6816",
	},
	"papers100m-s": {
		image:     "0bc58deb4dbc4c28",
		labels:    "3914bef453f5426b",
		train:     "5fb308c3b27ffaa3",
		val:       "24892ce93b85c37f",
		checksums: "50a16b1bb696dd49",
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
			ds, err := BuildWith(spec, sim.Factory(sim.InstantConfig()))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()
			got := hashesOf(t, ds)
			got.checksums = want.checksums
			if got != want {
				t.Fatalf("build is not byte-identical:\n got %+v\nwant %+v", got, want)
			}
		})
		t.Run(spec.Name+"/verified", func(t *testing.T) {
			ds, err := BuildWith(spec, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Dev.Close()
			got := hashesOf(t, ds)
			path := filepath.Join(t.TempDir(), "image.gnnd")
			if err := graph.Save(ds, path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The checksum section ends the container: block size and
			// count, a state byte and a sum per block, and its CRC.
			blocks := len(ds.Dev.(*integrity.Backend).Checksums().Sums)
			h := fnv.New64a()
			h.Write(b[len(b)-(16+5*blocks+4):])
			got.checksums = sum64(h)
			if got != want {
				t.Fatalf("verified build is not byte-identical:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
