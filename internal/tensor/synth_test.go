package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The edge inputs of BoxMuller's two functions. u1Edges are where
// math.Log's reduction switches: the least uniform, √2/2 (archLog's
// compare, !(√2/2 < f1)) and its neighbours, powers of two (f1 = 0.5
// exactly) and the largest uniform. u2Edges are the octant boundaries
// k/8 of x = 2π·u2 and their neighbours, where x·4/π may round either
// way, and the largest uniform, where it rounds to 8.
var (
	u1Edges = []float64{
		0x1p-53, 0x1p-52, 0x1p-27, 0x1p-2, 0.5,
		math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1),
		1 - 0x1p-53,
	}
	u2Edges = func() []float64 {
		e := []float64{0, 1 - 0x1p-53}
		for k := 1; k < 8; k++ {
			b := float64(k) / 8
			e = append(e, math.Nextafter(b, 0), b, math.Nextafter(b, 1))
		}
		return e
	}()
	centroidEdges = []float32{0.9, -0.9, 0, float32(math.Copysign(0, -1))}
)

// FuzzNormalRow holds NormalRow to the per-value BoxMuller loop, bit for
// bit, and checks it writes nothing past its row:
//   - n, the row length, runs 0–70: every pair count and the odd tail;
//   - value j's uniforms come from seed's NormUniforms, unless edges[2j]
//     or edges[2j+1] is non-zero: then u1 or u2 is that entry of u1Edges
//     or u2Edges (1-based, modulo the table length plus one);
//   - every centroid is one of ±0.9, 0 and −0.
//
// testdata/fuzz/FuzzNormalRow holds the committed seeds: every edge value
// in both lanes, edge values in the odd tail, and random 70-value rows,
// among them rows where dropping math.Log's k·Ln2Lo term moves a float32
// rounding (about one row in 14 does).
func FuzzNormalRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, edges []byte) {
		nv := int(n) % 71
		rng := NewRNG(seed)
		cen := make([]float32, nv)
		u := make([]float64, 2*nv)
		for j := range cen {
			cen[j] = centroidEdges[rng.Intn(len(centroidEdges))]
			u[2*j], u[2*j+1] = rng.NormUniforms()
			if e := edgeAt(edges, 2*j, len(u1Edges)); e > 0 {
				u[2*j] = u1Edges[e-1]
			}
			if e := edgeAt(edges, 2*j+1, len(u2Edges)); e > 0 {
				u[2*j+1] = u2Edges[e-1]
			}
		}
		want := make([]byte, 4*nv+8)
		got := make([]byte, 4*nv+8)
		for i := range want {
			want[i], got[i] = 0xA5, 0xA5
		}
		for j, cj := range cen {
			f := cj + BoxMuller(u[2*j], u[2*j+1])
			binary.LittleEndian.PutUint32(want[4*j:], math.Float32bits(f))
		}
		NormalRow(got, cen, u)
		for j := range cen {
			if g, w := got[4*j:4*j+4], want[4*j:4*j+4]; !bytes.Equal(g, w) {
				t.Fatalf("n=%d: value %d is %x, BoxMuller gives %x (u1=%v u2=%v cen=%v)",
					nv, j, g, w, u[2*j], u[2*j+1], cen[j])
			}
		}
		if !bytes.Equal(got[4*nv:], want[4*nv:]) {
			t.Fatalf("n=%d: NormalRow wrote past its row: %x", nv, got[4*nv:])
		}
	})
}

// edgeAt is edges[i] modulo size+1, or 0 past the end of edges.
func edgeAt(edges []byte, i, size int) int {
	if i >= len(edges) {
		return 0
	}
	return int(edges[i]) % (size + 1)
}

// TestNormalRowShortPanics pins the bounds check in Go: the assembly
// checks nothing, so a short u or dst must panic before it runs.
func TestNormalRowShortPanics(t *testing.T) {
	cen := make([]float32, 4)
	for _, c := range []struct {
		name string
		dst  []byte
		u    []float64
	}{
		{"short u", make([]byte, 16), make([]float64, 7)},
		{"short dst", make([]byte, 15), make([]float64, 8)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NormalRow did not panic", c.name)
				}
			}()
			NormalRow(c.dst, cen, c.u)
		}()
	}
}
