package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderFaultCounters(t *testing.T) {
	r := NewRecorder()
	r.Add(Counters{Retries: 3, Fallbacks: 2, Escalations: 1})
	r.Add(Counters{Retries: 4})
	if c := r.Counters(); c.Retries != 7 || c.Fallbacks != 2 || c.Escalations != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestBreakdownCollectorFaultCounters(t *testing.T) {
	var c BreakdownCollector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(Counters{Retries: 1, Fallbacks: 2, Escalations: 3})
			}
		}()
	}
	wg.Wait()
	b := c.Snapshot(time.Second)
	if b.Retries != 800 || b.Fallbacks != 1600 || b.Escalations != 2400 {
		t.Fatalf("snapshot %+v", b)
	}
}
