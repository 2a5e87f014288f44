package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	r.AddCPU(10 * time.Millisecond)
	r.AddCPU(5 * time.Millisecond)
	r.AddIOWait(3 * time.Millisecond)
	r.AddCPU(-time.Millisecond) // negative ignored
	if r.CPUBusy() != 15*time.Millisecond || r.IOWait() != 3*time.Millisecond {
		t.Fatalf("cpu=%v io=%v", r.CPUBusy(), r.IOWait())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.AddCPU(time.Microsecond)
				r.AddIOWait(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.CPUBusy() != 3200*time.Microsecond {
		t.Fatalf("cpu=%v", r.CPUBusy())
	}
}

func TestSamplerProducesWindows(t *testing.T) {
	r := NewRecorder()
	var gpu atomic.Int64
	r.SetGPUProvider(gpu.Load)
	s := r.StartSampler(5*time.Millisecond, 2, 2)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.AddCPU(2 * time.Millisecond)
				gpu.Add(int64(time.Millisecond))
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	time.Sleep(40 * time.Millisecond)
	close(stop)
	ws := s.Stop()
	if len(ws) < 3 {
		t.Fatalf("only %d windows", len(ws))
	}
	var sawCPU, sawGPU bool
	for _, w := range ws {
		if w.CPUUtil < 0 || w.CPUUtil > 1 || w.GPUUtil < 0 || w.GPUUtil > 1 || w.IOWaitRatio < 0 || w.IOWaitRatio > 1 {
			t.Fatalf("window out of range: %+v", w)
		}
		if w.CPUUtil > 0.1 {
			sawCPU = true
		}
		if w.GPUUtil > 0.1 {
			sawGPU = true
		}
	}
	if !sawCPU || !sawGPU {
		t.Fatalf("expected busy windows, got %+v", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].At <= ws[i-1].At {
			t.Fatal("window timestamps not increasing")
		}
	}
}

func TestBreakdownCollector(t *testing.T) {
	var c BreakdownCollector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AddSample(time.Millisecond)
			c.AddExtract(2 * time.Millisecond)
			c.AddTrain(3 * time.Millisecond)
			c.AddRelease(time.Microsecond)
			c.Add(Counters{Batches: 1, NodesExtracted: 10, BytesRead: 5120, BytesReused: 1024})
		}()
	}
	wg.Wait()
	c.AddPrep(7 * time.Millisecond)
	b := c.Snapshot(100 * time.Millisecond)
	if b.Sample != 8*time.Millisecond || b.Extract != 16*time.Millisecond ||
		b.Train != 24*time.Millisecond || b.Release != 8*time.Microsecond {
		t.Fatalf("breakdown %+v", b)
	}
	if b.Prep != 7*time.Millisecond || b.Total != 100*time.Millisecond {
		t.Fatalf("prep/total %+v", b)
	}
	if b.Batches != 8 || b.NodesExtracted != 80 || b.BytesRead != 8*5120 || b.BytesReused != 8*1024 {
		t.Fatalf("counters %+v", b)
	}
}

// fillDistinct sets every integer field of v (nested structs included) to
// its own value, so a field Add forgets cannot hide behind a zero.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, next)
		case reflect.Int, reflect.Int64:
			*next++
			f.SetInt(*next)
		default:
			t.Fatalf("Counters field %s has kind %v: teach Add and this test about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestCountersAddCoversEveryField pins the one place the counter list is
// written twice: a field added to Counters (or to storage.IntegrityStats)
// but not to Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	var n int64
	fillDistinct(t, reflect.ValueOf(&c).Elem(), &n)
	if n < 16 {
		t.Fatalf("filled only %d fields; the walk is broken", n)
	}
	sum := c
	sum.Add(c)
	var check func(path string, one, two reflect.Value)
	check = func(path string, one, two reflect.Value) {
		for i := 0; i < one.NumField(); i++ {
			name := path + one.Type().Field(i).Name
			if one.Field(i).Kind() == reflect.Struct {
				check(name+".", one.Field(i), two.Field(i))
			} else if two.Field(i).Int() != 2*one.Field(i).Int() {
				t.Errorf("%s: %d after Add, want %d", name, two.Field(i).Int(), 2*one.Field(i).Int())
			}
		}
	}
	check("", reflect.ValueOf(c), reflect.ValueOf(sum))
}
