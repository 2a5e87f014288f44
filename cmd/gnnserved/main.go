// Command gnnserved is the multi-tenant training daemon: it accepts
// training jobs over HTTP, runs them concurrently with per-job quotas
// carved from one shared resource envelope, and drains gracefully on
// SIGTERM — every running job is checkpointed and the job manifest
// persisted, so restarting gnnserved over the same -state dir resumes
// each job on a bit-identical trajectory.
//
//	gnnserved -addr :8080 -state /var/lib/gnnserved
//	curl -X POST localhost:8080/jobs -d '{"dataset":"tiny","system":"gnndrive-gpu","epochs":3}'
//	curl localhost:8080/jobs
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnndrive/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot hold a server goroutine open.
const readHeaderTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "HTTP listen address")
	state := flag.String("state", "gnnserved-state", "state directory (job manifest, checkpoints, backing files)")
	stagingSlots := flag.Int("staging-slots", 0, "shared staging pool slots (0 = default)")
	slotBytes := flag.Int("slot-bytes", 0, "shared staging slot size in bytes (0 = default)")
	featBudget := flag.Int64("feature-budget", 0, "summed feature-buffer byte budget across jobs (0 = default)")
	ioTokens := flag.Int("io-tokens", 0, "fair-share extract I/O permit pool (0 = default)")
	maxQueued := flag.Int("max-queued", 0, "max jobs waiting for resources; negative disables queueing (0 = default)")
	maxRequeues := flag.Int("max-requeues", 0, "supervisor restarts per faulting job; negative disables (0 = default)")
	drainGrace := flag.Duration("drain-grace", 0, "how long a drain waits for job checkpoints (0 = default)")
	stall := flag.Duration("stall-deadline", 0, "per-job pipeline watchdog deadline; negative disables (0 = default)")
	flag.Parse()

	d, err := serve.NewDaemon(serve.Config{
		BaseContext:        context.Background(),
		StateDir:           *state,
		StagingSlots:       *stagingSlots,
		SlotBytes:          *slotBytes,
		FeatureBudgetBytes: *featBudget,
		IOTokens:           *ioTokens,
		MaxQueued:          *maxQueued,
		MaxRequeues:        *maxRequeues,
		DrainGrace:         *drainGrace,
		StallDeadline:      *stall,
		Logf:               log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: d.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gnnserved: listening on %s, state in %s", *addr, *state)

	// SIGTERM/SIGINT start the graceful drain, not a hard stop: the
	// daemon's own BaseContext stays alive so jobs keep training until
	// their drain checkpoints are committed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("gnnserved: %v: draining (checkpointing running jobs)", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := d.Drain(ctx); err != nil {
			log.Printf("gnnserved: drain: %v", err)
		}
		cancel()
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(shCtx)
		shCancel()
		log.Printf("gnnserved: drained; restart with the same -state to resume")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			d.Close()
			log.Fatal(err)
		}
	}
}
