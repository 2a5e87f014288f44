package errutil_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/storage/storagetest"
)

// serveNow pushes v and, when the server was idle, delivers on the caller.
func serveNow[T any](s *errutil.Server[T], arrival time.Time, svc time.Duration, v T) {
	if s.Push(arrival, svc, v) {
		s.Deliver()
	}
}

// TestServerStartsAtArrivalOrPreviousFinish pins the FIFO rule on fixed
// clocks: service starts at the later of the arrival and the previous
// finish, never at the moment of the push, an idle server banks no
// credit, and a zero arrival means now, never the zero time (whose
// finish would lie in the past forever).
func TestServerStartsAtArrivalOrPreviousFinish(t *testing.T) {
	const svc = 100 * time.Microsecond
	var got []time.Time
	s := errutil.NewServer(func(_ int, finish time.Time) { got = append(got, finish) })
	past := time.Now().Add(-time.Hour)
	serveNow(s, past, svc, 0)                     // idle: starts at the arrival
	serveNow(s, past, svc, 0)                     // busy: starts at the previous finish
	serveNow(s, past.Add(time.Minute), svc, 0)    // idle again: starts at the arrival
	serveNow(s, past.Add(30*time.Second), svc, 0) // arrived while busy
	before := time.Now()
	serveNow(s, time.Time{}, svc, 0)
	want := []time.Time{past.Add(svc), past.Add(2 * svc), past.Add(time.Minute + svc), past.Add(time.Minute + 2*svc)}
	if len(got) != len(want)+1 {
		t.Fatalf("%d of %d due entries delivered on the caller", len(got), len(want)+1)
	}
	for i, w := range want {
		if !got[i].Equal(w) {
			t.Errorf("entry %d: finish %v after the first arrival, want %v", i, got[i].Sub(past), w.Sub(past))
		}
	}
	if now := got[len(want)]; now.Before(before.Add(svc)) || now.After(time.Now().Add(svc)) {
		t.Errorf("a zero arrival finished %v from now, want about %v", time.Until(now), svc)
	}
}

// TestServerDefersPastTheSlack: an entry due within PaceSlack, with
// nothing pending before it, is delivered on the caller; one further
// ahead waits for the timer, is delivered no earlier than PaceSlack
// before its finish, and holds back a due entry pushed behind it. Every
// wait re-arms the one timer, and none ends early.
func TestServerDefersPastTheSlack(t *testing.T) {
	type entry struct {
		id int
		at time.Time
	}
	delivered := make(chan entry, 2)
	s := errutil.NewServer(func(id int, _ time.Time) { delivered <- entry{id, time.Now()} })
	serveNow(s, time.Now(), errutil.PaceSlack/2, 0)
	if len(delivered) != 1 {
		t.Fatal("an entry due within the slack was not delivered on the caller")
	}
	<-delivered
	for i := 0; i < 20; i++ {
		start := time.Now()
		finish := start.Add(2 * time.Millisecond)
		serveNow(s, start, 2*time.Millisecond, 1)
		if s.Push(time.Now(), 0, 2) {
			t.Fatal("a server with a deferred entry reported itself idle")
		}
		if len(delivered) != 0 {
			t.Fatal("an entry beyond the slack was delivered on the caller")
		}
		first, second := <-delivered, <-delivered
		if first.id != 1 || second.id != 2 {
			t.Fatalf("delivered %d then %d, want push order", first.id, second.id)
		}
		if early := finish.Sub(first.at); early > errutil.PaceSlack {
			t.Fatalf("a deferred entry was delivered %v before its finish", early)
		}
	}
}

// TestSleepCutShortLeavesNoStaleTick: a sleep that ctx cut short ends
// no later sleep early.
func TestSleepCutShortLeavesNoStaleTick(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		if err := errutil.Sleep(cancelled, time.Millisecond); !errors.Is(err, context.Canceled) {
			t.Fatalf("a cancelled sleep returned %v", err)
		}
		time.Sleep(1100 * time.Microsecond) // the cut-short wait's timer would fire now
		start := time.Now()
		if err := errutil.Sleep(context.Background(), 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < 2*time.Millisecond {
			t.Fatalf("a sleep after a cancelled one ended after %v, before its 2ms", got)
		}
	}
}

// TestServerZeroAlloc pins both delivery paths at zero allocations: a due
// entry delivered on the caller and a deferred one the timer delivers.
func TestServerZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ch := make(chan struct{}, 1)
	s := errutil.NewServer(func(struct{}, time.Time) { ch <- struct{}{} })
	serve := func(svc time.Duration) func() {
		return func() {
			serveNow(s, time.Time{}, svc, struct{}{})
			<-ch
		}
	}
	for _, path := range []struct {
		name string
		svc  time.Duration
	}{{"due", 0}, {"deferred", 2 * errutil.PaceSlack}} {
		serve(path.svc)() // grows the queue
		if n := testing.AllocsPerRun(20, serve(path.svc)); n != 0 {
			t.Errorf("a %s entry allocates %v times, want 0", path.name, n)
		}
	}
}
