// Package ipa is the fixture corpus for the interprocedural dataflow
// engine under the alignedio analyzer: cross-function taint chains of
// depth 1–3, sink-reaching parameters, pass-through helpers, mutual
// recursion, and method values. The sink shapes replicate the
// storage.Backend signatures, as in the alignedio corpus.
//
// The cases in this file marked "v1 false negative" are the reason the
// engine exists: gnnlint v1's alignedio walk was intra-procedural, so a
// call to a package-local helper was an opaque, clean expression — a
// raw make([]byte) laundered through one (or two) helper returns, or
// handed to a helper that performs the read, reached the O_DIRECT sink
// unseen. v2's summaries close exactly that hole.
package ipa

import (
	"context"
	"time"
)

// Dev replicates the backend read sinks.
type Dev struct{}

func (*Dev) ReadAt(p []byte, off int64) (time.Duration, error)     { return 0, nil }
func (*Dev) ReadDirect(p []byte, off int64) (time.Duration, error) { return 0, nil }
func (*Dev) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return 0, nil
}

// AlignedBuf stands in for storage.AlignedBuf: a sanctioned source.
func AlignedBuf(n, align int) []byte { return make([]byte, n) }

// --- taint-returning helpers -----------------------------------------

// rawDepth1 is a depth-1 laundering helper: its result is make-born.
func rawDepth1() []byte { return make([]byte, 512) }

// rawDepth2 launders through rawDepth1 — the depth-2 chain.
func rawDepth2() []byte { return rawDepth1() }

// rawDepth3 launders through rawDepth2 — the depth-3 chain.
func rawDepth3() []byte {
	buf := rawDepth2()
	return buf
}

// alignedHelper returns sanctioned memory: callers stay clean.
func alignedHelper() []byte { return AlignedBuf(512, 512) }

// clampTo16 is a pass-through helper: its result carries whatever
// taint its parameter carried.
func clampTo16(b []byte) []byte { return b[:16] }

// mutA/mutB are mutually recursive; the make-born base case in mutB
// must propagate to both through the summary fixpoint.
func mutA(n int) []byte {
	if n <= 0 {
		return mutB(n)
	}
	return mutA(n - 1)
}

func mutB(n int) []byte {
	if n == 0 {
		return make([]byte, 64)
	}
	return mutA(n - 1)
}

// --- sink-reaching parameters ----------------------------------------

// readInto's parameter reaches a backend sink directly: passing a raw
// buffer to readInto is as bad as calling ReadDirect with it.
func readInto(d *Dev, p []byte) {
	_, _ = d.ReadDirect(p, 0)
}

// readIndirect forwards its parameter to readInto — the parameter
// reaches the sink at depth 2.
func readIndirect(d *Dev, p []byte) {
	readInto(d, p[:256])
}

// --- findings --------------------------------------------------------

// v1 false negative: v1 saw rawDepth1() as an opaque clean call; the
// summary marks it taint-returning.
func badDepth1(d *Dev) {
	buf := rawDepth1()
	_, _ = d.ReadDirect(buf, 0) // want "reaches backend ReadDirect"
}

// v1 false negative (the acceptance-criteria case): the raw buffer is
// laundered through TWO helper returns before reaching the sink. v1's
// intra-procedural walk provably cannot see this — no make() appears in
// this function or its direct callee's signature — and shipped exactly
// this hole; v2's retTaint fixpoint carries the make bit through both
// hops.
func badDepth2(d *Dev) {
	buf := rawDepth2()
	_, _ = d.ReadAt(buf, 0) // want "reaches backend ReadAt"
}

func badDepth3(ctx context.Context, d *Dev) {
	buf := rawDepth3()
	_, _ = d.ReadDirectCtx(ctx, buf, 0) // want "reaches backend ReadDirectCtx"
}

// v1 false negative: the sink lives inside the callee; the tainted
// argument is reported at the call site.
func badSinkParam(d *Dev) {
	buf := make([]byte, 512)
	readInto(d, buf) // want "reaches a backend read/submit sink through the call to readInto"
}

func badSinkParamDepth2(d *Dev) {
	buf := make([]byte, 512)
	readIndirect(d, buf) // want "through the call to readIndirect"
}

// Pass-through helpers neither bless nor launder: the clamped view of a
// raw buffer is still raw.
func badPassThrough(d *Dev) {
	buf := make([]byte, 512)
	clamped := clampTo16(buf)
	_, _ = d.ReadDirect(clamped, 0) // want "reaches backend ReadDirect"
}

func badMutualRecursion(d *Dev) {
	buf := mutA(3)
	_, _ = d.ReadDirect(buf, 0) // want "reaches backend ReadDirect"
}

// Method values and function values resolve through the walker's
// bindings: the call through f is still rawDepth1, and the call through
// r is still a ReadDirect sink.
func badMethodValue(d *Dev) {
	f := rawDepth1
	buf := f()
	r := d.ReadDirect
	_, _ = r(buf, 0) // want "reaches backend ReadDirect"
}

// --- clean -----------------------------------------------------------

func goodHelpers(ctx context.Context, d *Dev) {
	// Helper-returned aligned memory is clean at any depth.
	buf := alignedHelper()
	_, _ = d.ReadDirect(buf, 0)

	// Sink-reaching parameters are fine when fed aligned memory.
	readInto(d, buf)
	readIndirect(d, AlignedBuf(512, 512))

	// Pass-through of clean memory stays clean.
	_, _ = d.ReadDirectCtx(ctx, clampTo16(buf), 0)
}

// goodLocalUse: a raw buffer that never reaches a sink is none of the
// analyzer's business, in this function or any callee.
func goodLocalUse() []byte {
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i)
	}
	return buf[:128]
}
