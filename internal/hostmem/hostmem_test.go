package hostmem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestPinUnpin(t *testing.T) {
	b := NewBudget(100)
	if err := b.Pin("a", 60); err != nil {
		t.Fatal(err)
	}
	if b.Pinned() != 60 || b.CachePool() != 40 {
		t.Fatalf("pinned=%d pool=%d", b.Pinned(), b.CachePool())
	}
	if err := b.Pin("b", 50); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	b.Unpin(60)
	if b.Pinned() != 0 || b.CachePool() != 100 {
		t.Fatalf("after unpin pinned=%d pool=%d", b.Pinned(), b.CachePool())
	}
}

func TestUnpinTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBudget(10)
	b.Unpin(1)
}

func TestNegativePinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBudget(10).Pin("neg", -1) //nolint:errcheck
}

func TestConcurrentPinNeverOversubscribes(t *testing.T) {
	b := NewBudget(1000)
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := int64(0)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Pin("w", 100); err == nil {
				mu.Lock()
				granted += 100
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted > 1000 {
		t.Fatalf("granted %d > capacity", granted)
	}
	if granted != b.Pinned() {
		t.Fatalf("granted %d != pinned %d", granted, b.Pinned())
	}
}

// Property: for any pin/unpin sequence, pinned + pool == capacity and both
// stay non-negative.
func TestBudgetInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBudget(1 << 20)
		var held []int64
		for _, op := range ops {
			n := int64(op)
			if op%2 == 0 || len(held) == 0 {
				if err := b.Pin("p", n); err == nil {
					held = append(held, n)
				}
			} else {
				b.Unpin(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if b.Pinned() < 0 || b.CachePool() < 0 ||
				b.Pinned()+b.CachePool() != b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
