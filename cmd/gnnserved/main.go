// Command gnnserved is the multi-tenant training daemon: it accepts
// training jobs over HTTP, runs them concurrently, each charged against
// one shared resource envelope, and drains gracefully on
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
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot hold a server goroutine open.
const readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it binds the listen address, starts the daemon
// over -state (resuming every job the manifest left unfinished), and
// serves until ctx is cancelled, which drains. Lifecycle lines go to
// stdout, the daemon's diagnostics and errors to stderr. It returns the
// exit status: 0 after a drain, 2 for a malformed command line, 1 for
// any other error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gnnserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f daemonFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", 0)
	// Bind before the daemon exists: NewDaemon restarts every resumable
	// job in -state, so a second gnnserved that cannot get the port must
	// fail before it trains the first one's jobs.
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		logger.Print(err)
		return 1
	}
	return serveOn(ctx, ln, f.lower(logger.Printf), stdout, logger)
}

// serveOn is the command after the bind: it starts the daemon over
// cfg.StateDir, serves its API on ln until ctx is cancelled, which
// drains, and returns run's exit status. It closes ln.
func serveOn(ctx context.Context, ln net.Listener, cfg serve.Config, stdout io.Writer, logger *log.Logger) int {
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		ln.Close()
		logger.Print(err)
		return 1
	}
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	out := log.New(stdout, "", 0)
	out.Printf("gnnserved: listening on %s, state in %s", ln.Addr(), cfg.StateDir)

	// Cancellation starts the graceful drain, not a hard stop: the
	// daemon's own BaseContext stays alive so jobs keep training until
	// their drain checkpoints are committed.
	select {
	case <-ctx.Done():
		out.Print("gnnserved: draining (checkpointing running jobs)")
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := d.Drain(dctx); err != nil {
			logger.Printf("gnnserved: drain: %v", err)
		}
		cancel()
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(shCtx)
		shCancel()
		out.Print("gnnserved: drained; restart with the same -state to resume")
		return 0
	case err := <-errc:
		d.Close()
		logger.Print(err)
		return 1
	}
}

// daemonFlags is the parsed command line: the listen address plus the
// serve.Config the other flags fill in place. A zero field takes the
// daemon's default; a negative -max-queued, -max-requeues or
// -stall-deadline passes through, where serve gives it its documented
// meaning.
type daemonFlags struct {
	addr string
	serve.Config
}

// register declares every flag of the command on fs, writing into f.
func (f *daemonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "addr", ":8080", "HTTP listen address (port 0 picks a free port; the bound address is logged)")
	fs.StringVar(&f.StateDir, "state", "gnnserved-state", "state directory (job manifest, checkpoints, backing files)")
	fs.Func("staging-bytes", "staging budget in `bytes` that the jobs' own pools share, whole 512-byte units (0 = default)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n != 0 && n < core.StagingUnit {
			return fmt.Errorf("want 0 or at least %d bytes", core.StagingUnit)
		}
		f.StagingSlots, f.SlotBytes = n/core.StagingUnit, core.StagingUnit
		return nil
	})
	fs.Int64Var(&f.FeatureBudgetBytes, "feature-budget", 0, "summed feature-buffer byte budget across jobs (0 = default)")
	fs.IntVar(&f.IOTokens, "io-tokens", 0, "fair-share extract I/O permit pool (0 = default)")
	fs.IntVar(&f.MaxQueued, "max-queued", 0, "max jobs waiting for resources; negative disables queueing (0 = default)")
	fs.IntVar(&f.MaxRequeues, "max-requeues", 0, "supervisor restarts per faulting job; negative disables (0 = default)")
	fs.DurationVar(&f.DrainGrace, "drain-grace", 0, "how long a drain waits for job checkpoints (0 = default)")
	fs.DurationVar(&f.StallDeadline, "stall-deadline", 0, "per-job pipeline watchdog deadline; negative disables (0 = default)")
}

// lower returns the daemon's configuration: the parsed fields, a
// background BaseContext (the daemon outlives run's ctx until its drain
// completes) and logf for diagnostics.
func (f *daemonFlags) lower(logf func(format string, args ...any)) serve.Config {
	cfg := f.Config
	cfg.BaseContext = context.Background()
	cfg.Logf = logf
	return cfg
}
