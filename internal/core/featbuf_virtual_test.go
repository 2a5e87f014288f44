//go:build goexperiment.synctest

package core

import (
	"context"
	"errors"
	"testing"
	"testing/synctest"
	"time"
)

// TestVirtualReserveTimesOut: a reserve that no release can ever satisfy
// gives up with ErrBufferTooSmall after exactly reserveTimeout, counted
// as one standby wait. On synctest's virtual clock
// (GOEXPERIMENT=synctest) the 30 s wait takes no wall time.
func TestVirtualReserveTimesOut(t *testing.T) {
	synctest.Run(func() {
		fb := NewFeatureBuffer(10, 4, 2)
		if _, err := fb.ReserveCtx(context.Background(), []int64{1, 2}); err != nil {
			t.Error(err)
			return
		}
		start := time.Now()
		_, err := fb.ReserveCtx(context.Background(), []int64{3, 4})
		if waited := time.Since(start); !errors.Is(err, ErrBufferTooSmall) || waited != reserveTimeout {
			t.Errorf("reserve over pinned slots: %v after %v, want ErrBufferTooSmall after %v", err, waited, reserveTimeout)
		}
		if n := fb.Stats().StandbyWaits; n != 1 {
			t.Errorf("StandbyWaits = %d, want 1", n)
		}
	})
}
