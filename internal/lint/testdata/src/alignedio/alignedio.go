// Package alignedfix is the fixture corpus for the alignedio analyzer.
// The sink shapes replicate the storage.Backend / uring method
// signatures (the analyzer matches method shape, not package identity,
// so the corpus stays self-contained).
package alignedfix

import (
	"context"
	"time"
)

// Dev replicates the backend read sinks: (time.Duration, error) results
// distinguish them from io.ReaderAt.
type Dev struct{}

func (*Dev) ReadAt(p []byte, off int64) (time.Duration, error)     { return 0, nil }
func (*Dev) ReadDirect(p []byte, off int64) (time.Duration, error) { return 0, nil }
func (*Dev) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return 0, nil
}

// Request and Submit replicate the async path.
type Request struct {
	Buf []byte
	Off int64
}

func (*Dev) Submit(req *Request)                {}
func (*Dev) SubmitBatch(reqs []*Request)        {}
func (*Dev) RegisterBuffers(rs ...[]byte) error { return nil }

// Ring replicates the uring staged-queue sinks.
type Ring struct{}

func (*Ring) QueueReadCtx(ctx context.Context, p []byte, off int64, user uint64) error {
	return nil
}
func (*Ring) QueueBufferedReadCtx(ctx context.Context, p []byte, off int64, user uint64) error {
	return nil
}

// Extent and SegmentReader replicate the layout package's extent-read
// sink: (int, time.Duration, error) results distinguish ReadExtent from
// unrelated methods of the same name.
type Extent struct {
	Off     int64
	FeatOff int
	Len     int
}

type SegmentReader struct{}

func (*SegmentReader) ReadExtent(p []byte, ext Extent) (int, time.Duration, error) {
	return 0, 0, nil
}

// otherReader has a same-named method with a different result shape;
// the analyzer must leave it alone.
type otherReader struct{}

func (*otherReader) ReadExtent(p []byte, ext Extent) (int, error) { return 0, nil }

// AlignedBuf stands in for storage.AlignedBuf: any non-make source is
// clean.
func AlignedBuf(n, align int) []byte { return make([]byte, n) }

type holder struct {
	raw []byte
}

func bad(d *Dev) {
	buf := make([]byte, 512)
	_, _ = d.ReadDirect(buf, 0) // want "raw make.* buffer reaches backend ReadDirect"
}

func badCtx(ctx context.Context, d *Dev) {
	buf := make([]byte, 512)
	_, _ = d.ReadDirectCtx(ctx, buf[:256], 0) // want "reaches backend ReadDirectCtx"
}

func badField(d *Dev, h *holder) {
	h.raw = make([]byte, 1024)
	_, _ = d.ReadAt(h.raw[:512], 0) // want "reaches backend ReadAt"
}

func badSubmit(d *Dev) {
	buf := make([]byte, 512)
	d.Submit(&Request{Buf: buf, Off: 0}) // want "submitted as Request.Buf"
}

func badSubmitVar(d *Dev) {
	req := &Request{}
	req.Buf = make([]byte, 512)
	d.Submit(req) // want "Buf was assigned a raw make"
}

func badQueue(ctx context.Context, r *Ring) {
	buf := make([]byte, 512)
	_ = r.QueueReadCtx(ctx, buf[:256], 64, 2) // want "submitted to the direct read path via QueueReadCtx"
}

func badBatch(d *Dev) {
	buf := make([]byte, 512)
	d.SubmitBatch([]*Request{
		{Buf: AlignedBuf(512, 512)},
		{Buf: buf, Off: 512}, // want "submitted as Request.Buf"
	})
}

func badExtent(sr *SegmentReader) {
	buf := make([]byte, 4096)
	_, _, _ = sr.ReadExtent(buf, Extent{Off: 512, Len: 128}) // want "reaches the layout read path via ReadExtent"
}

func badRegister(d *Dev) {
	region := make([]byte, 4096)
	_ = d.RegisterBuffers(region) // want "region registered as a fixed buffer via RegisterBuffers"
}

func good(ctx context.Context, d *Dev, r *Ring) {
	buf := AlignedBuf(512, 512)
	_, _ = d.ReadDirect(buf, 0)
	_, _ = d.ReadDirectCtx(ctx, buf, 0)
	d.Submit(&Request{Buf: buf})

	// Reassignment from a clean source clears the taint.
	raw := make([]byte, 512)
	raw = AlignedBuf(512, 512)
	_, _ = d.ReadDirect(raw, 0)

	// The buffered queue path tolerates unaligned memory by contract.
	unaligned := make([]byte, 512)
	_ = r.QueueBufferedReadCtx(ctx, unaligned, 0, 3)

	// Aligned memory through the queue and batch sinks is clean.
	_ = r.QueueReadCtx(ctx, buf, 0, 4)
	d.SubmitBatch([]*Request{{Buf: buf}, {Buf: AlignedBuf(512, 512)}})
	_ = d.RegisterBuffers(buf, AlignedBuf(4096, 512))

	// The layout extent reader accepts aligned memory, and a same-named
	// method with a different result shape is not a sink at all.
	sr := &SegmentReader{}
	_, _, _ = sr.ReadExtent(buf, Extent{Len: 64})
	other := &otherReader{}
	raw2 := make([]byte, 512)
	_, _ = other.ReadExtent(raw2, Extent{Len: 64})
}

func suppressed(d *Dev) {
	buf := make([]byte, 512)
	//gnnlint:ignore alignedio fixture: deliberately unaligned to exercise the EINVAL path
	_, _ = d.ReadDirect(buf, 0) // want:suppressed "reaches backend ReadDirect"
}

func suppressedRegister(d *Dev) {
	buf := make([]byte, 512)
	//gnnlint:ignore alignedio fixture: registration refusal path under test
	_ = d.RegisterBuffers(buf) // want:suppressed "registered as a fixed buffer"
}
