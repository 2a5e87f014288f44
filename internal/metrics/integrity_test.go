package metrics

import (
	"sync"
	"testing"

	"gnndrive/internal/storage"
)

func TestRecorderIntegrityAccumulates(t *testing.T) {
	r := NewRecorder()
	r.Add(Counters{Integrity: storage.IntegrityStats{ChecksumFailures: 2, Repairs: 2, HedgesIssued: 1}})
	r.Add(Counters{Integrity: storage.IntegrityStats{ChecksumFailures: 1, HedgesWon: 1, BreakerTrips: 1}})
	got := r.Counters().Integrity
	want := storage.IntegrityStats{ChecksumFailures: 3, Repairs: 2, HedgesIssued: 1,
		HedgesWon: 1, BreakerTrips: 1}
	if got != want {
		t.Fatalf("integrity totals %+v, want %+v", got, want)
	}
}

func TestBreakdownCollectorIntegrity(t *testing.T) {
	var c BreakdownCollector
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Add(Counters{Integrity: storage.IntegrityStats{VerifiedReads: 10, Repairs: 1}})
		}()
	}
	wg.Wait()
	b := c.Snapshot(0)
	if b.Integrity.VerifiedReads != 40 || b.Integrity.Repairs != 4 {
		t.Fatalf("breakdown integrity %+v", b.Integrity)
	}
}

func TestIntegrityStatsAddSub(t *testing.T) {
	a := storage.IntegrityStats{VerifiedReads: 5, ChecksumFailures: 2, HedgesIssued: 3}
	b := storage.IntegrityStats{VerifiedReads: 2, ChecksumFailures: 1, HedgesIssued: 3}
	if got := a.Sub(b); got != (storage.IntegrityStats{VerifiedReads: 3, ChecksumFailures: 1}) {
		t.Fatalf("Sub: %+v", got)
	}
	if got := b.Add(a.Sub(b)); got != a {
		t.Fatalf("Add(Sub) roundtrip: %+v != %+v", got, a)
	}
}
