package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// frame wraps four section payloads in a GNNRUNS1 container with valid
// section and whole-file CRCs, so fuzzed bytes reach the section parsers
// instead of stopping at the first CRC check.
func frame(meta, params, adamM, adamV []byte) []byte {
	b := append([]byte(magic), binary.LittleEndian.AppendUint32(nil, version)...)
	for _, sec := range []struct {
		id      uint32
		payload []byte
	}{{secMeta, meta}, {secParams, params}, {secAdamM, adamM}, {secAdamV, adamV}} {
		body := beginSection(&b, sec.id)
		b = append(b, sec.payload...)
		endSection(&b, body)
	}
	whole := crc32.ChecksumIEEE(b)
	body := beginSection(&b, secEnd)
	b = binary.LittleEndian.AppendUint32(b, whole)
	endSection(&b, body)
	return b
}

// FuzzDecode frames arbitrary section payloads into a container and
// decodes it. Every input must end in ErrCorrupt or in a state whose
// Encode is the framed input byte for byte. No input may panic or size
// an allocation from a count the payload cannot back. Seeds in
// testdata/fuzz/FuzzDecode: an Encode output, a tensor count of 2³²−1,
// and a shape whose rows*cols*4 overflows.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, meta, params, adamM, adamV []byte) {
		data := frame(meta, params, adamM, adamV)
		st, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(Encode(st), data) {
			t.Fatalf("decode not identical: re-encoding differs from the input")
		}
	})
}

// TestDecodeRejectsHugeCounts: a tensor count of 2³²−1 and a shape whose
// byte size overflows are ErrCorrupt, so LoadLatest can fall back to an
// older checkpoint instead of the process dying out of memory.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	enc := Encode(sampleState())
	bounds := sectionBoundaries(t, enc)
	payload := func(i int) []byte { return enc[bounds[i]+8 : bounds[i+1]-4] }
	meta, params := payload(0), payload(1)
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"huge count":        u32(1<<32 - 1),
		"overflowing shape": u32(1, 0, 1<<31, 1<<31),
	} {
		if _, err := Decode(frame(meta, bad, params, params)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Decode(frame(meta, params, payload(2), payload(3))); err != nil {
		t.Fatalf("reframed Encode output: %v", err)
	}
}
