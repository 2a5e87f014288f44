package main

import (
	"fmt"
	"testing"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
)

type fakeBatch struct {
	inner   storage.Backend
	batches int
}

func (f *fakeBatch) SubmitBatch(reqs []*storage.Request) {
	f.batches++
	for _, r := range reqs {
		f.inner.Submit(r)
	}
}

type fakeRegistrar struct{ regions int }

func (f *fakeRegistrar) RegisterBuffers(regions ...[]byte) error {
	f.regions += len(regions)
	return nil
}

type fakeInteg struct{}

func (fakeInteg) IntegrityStats() storage.IntegrityStats {
	return storage.IntegrityStats{VerifiedReads: 42}
}

// The decorator must offer exactly the optional interfaces its inner
// backend offers: the engine and the ring find them by type assertion.
func TestDecorateForwardsOptionalInterfaces(t *testing.T) {
	base := sim.New(1<<20, sim.InstantConfig())
	defer base.Close()
	fb, fr, fi := &fakeBatch{inner: base}, &fakeRegistrar{}, fakeInteg{}
	inners := []storage.Backend{
		base,
		struct {
			storage.Backend
			*fakeBatch
		}{base, fb},
		struct {
			storage.Backend
			*fakeRegistrar
		}{base, fr},
		struct {
			storage.Backend
			fakeInteg
		}{base, fi},
		struct {
			storage.Backend
			*fakeBatch
			*fakeRegistrar
		}{base, fb, fr},
		struct {
			storage.Backend
			*fakeBatch
			fakeInteg
		}{base, fb, fi},
		struct {
			storage.Backend
			*fakeRegistrar
			fakeInteg
		}{base, fr, fi},
		struct {
			storage.Backend
			*fakeBatch
			*fakeRegistrar
			fakeInteg
		}{base, fb, fr, fi},
	}
	set := func(b storage.Backend) string {
		_, bs := b.(storage.BatchSubmitter)
		_, br := b.(storage.BufferRegistrar)
		_, is := b.(storage.IntegrityStatser)
		return fmt.Sprintf("batch=%v registrar=%v integrity=%v", bs, br, is)
	}
	for _, inner := range inners {
		p := &backendProbe{}
		p.on.Store(true)
		dec := decorate(inner, p)
		if got, want := set(dec), set(inner); got != want {
			t.Errorf("decorated offers {%s}, inner offers {%s}", got, want)
			continue
		}
		if is, ok := dec.(storage.IntegrityStatser); ok && is.IntegrityStats().VerifiedReads != 42 {
			t.Error("IntegrityStats not forwarded")
		}
		if br, ok := dec.(storage.BufferRegistrar); ok {
			before := fr.regions
			if err := br.RegisterBuffers(make([]byte, 512)); err != nil || fr.regions != before+1 {
				t.Error("RegisterBuffers not forwarded")
			}
		}
		// A batch of reads goes through the inner batch path (when there
		// is one), is timed, and leaves each request's Done as it was.
		done := make(chan *storage.Request, 2)
		orig := func(r *storage.Request) { done <- r }
		reqs := []*storage.Request{
			{Buf: make([]byte, 512), Off: 0, Done: orig},
			{Buf: make([]byte, 512), Off: 512, Done: orig},
		}
		before := fb.batches
		storage.SubmitAll(dec, reqs)
		for range reqs {
			if r := <-done; r.Err != nil {
				t.Errorf("read failed: %v", r.Err)
			}
		}
		if _, ok := inner.(storage.BatchSubmitter); ok && fb.batches != before+1 {
			t.Errorf("batch submit not forwarded as one batch (%d calls)", fb.batches-before)
		}
		if c := p.counts(); c.reads != 2 || c.latencyNs <= 0 || c.inflightSum < 2 {
			t.Errorf("probe saw %+v, want 2 timed reads", c)
		}
		// Done is restored: resubmitting with the probe off still reaches it.
		p.on.Store(false)
		dec.Submit(reqs[0])
		<-done
		if c := p.counts(); c.reads != 2 {
			t.Errorf("probe counted a read while off (%d)", c.reads)
		}
	}
}
