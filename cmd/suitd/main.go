// Command suitd serves SUIT simulations as a long-running daemon: an
// HTTP/JSON API over the shared experiment engine (internal/service).
// Every submitted spec is content-addressed by its canonical
// fingerprint, so identical submissions — concurrent or repeated,
// within one daemon lifetime or across restarts — cost one simulation:
// concurrent duplicates coalesce onto the live job (single-flight),
// repeats hit the persistent result store, and overlapping sweeps share
// scenario results through the engine's content-addressed cache.
//
// API:
//
//	POST /v1/sweeps                submit a sweep/sim spec → job ID (the spec fingerprint digest)
//	GET  /v1/sweeps                list jobs
//	GET  /v1/sweeps/{id}           status + result
//	GET  /v1/sweeps/{id}/events    progress stream (Server-Sent Events)
//	GET  /metrics                  Prometheus text format
//	GET  /healthz                  pure liveness
//	GET  /readyz                   readiness (503 while draining)
//
// Distributed execution: every daemon also serves the work-distribution
// API (POST /v1/work/claim, /v1/work/{lease}/heartbeat,
// /v1/work/{lease}/result) that suitworker processes pull leased,
// fingerprint-addressed scenario units from. Workers are optional: with
// none connected every sweep runs in-process exactly as before, and
// because results are content-addressed, local and remote execution
// store byte-identical files. A worker that crashes mid-unit simply
// stops heartbeating; its lease expires (-lease-ttl) and the unit is
// reassigned, or — after -remote-attempts failed leases — falls back to
// local execution. -remote-only forbids that fallback for daemons that
// must not simulate locally. Result digests prove transport integrity
// only; on a daemon reachable beyond its worker fleet, -worker-token
// (or $SUITD_WORKER_TOKEN) makes every /v1/work request require the
// matching bearer token.
//
// Failures: each scenario is simulated once. The first that fails ends
// its job failed, and the job's error names the scenario's fingerprint
// (a panic carries its stack); suitd_engine_failed_total on /metrics
// counts failed scenarios. A worker built at another results revision
// is refused with 409 at its first claim.
//
// Backpressure: the admission queue is bounded (-queue); a submission
// that finds it full gets 429 with a Retry-After estimate.
//
// Shutdown: SIGTERM/SIGINT starts a graceful drain — submissions are
// refused, running sweeps get -drain-timeout to finish, then their
// engine runs are cancelled. Completed scenario points are cached
// throughout, so a restarted daemon given the same -state dir resumes
// a resubmitted sweep where it stopped and reproduces its result
// byte-identically. A clean drain exits 0.
//
// Exit codes: 0 after a clean drain, 1 usage or configuration error
// (a missing -state, an unknown flag), 2 the listener failed.
//
// Example:
//
//	suitd -addr :8470 -state /var/lib/suitd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"suit/internal/dist"
	"suit/internal/service"
)

const (
	exitOK    = 0
	exitUsage = 1
	exitErr   = 2
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its context, arguments, streams and exit status
// lifted out, so tests can drive the daemon in-process. Cancelling ctx
// starts the graceful drain that SIGTERM starts in main. The daemon
// writes only to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suitd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8470", "listen address")
		stateDir     = fs.String("state", "", "persistent state directory (scenario cache and result store); required")
		workers      = fs.Int("j", runtime.GOMAXPROCS(0), "engine scenario workers")
		execJobs     = fs.Int("exec", 2, "jobs executed concurrently (they share the engine pool)")
		queueDepth   = fs.Int("queue", 64, "admission queue capacity; submissions beyond it get 429 + Retry-After")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long running sweeps may finish after SIGTERM before their runs are cancelled")

		leaseTTL       = fs.Duration("lease-ttl", 3*time.Second, "work-unit lease TTL: a worker that stops heartbeating for this long loses the unit to reassignment")
		remoteAttempts = fs.Int("remote-attempts", 3, "failed leases a work unit may burn before falling back to local execution")
		remoteOnly     = fs.Bool("remote-only", false, "never execute scenarios in-process; wait for workers instead (readiness degrades while the dispatcher is tripped)")
		workerToken    = fs.String("worker-token", os.Getenv("SUITD_WORKER_TOKEN"), "bearer token required on /v1/work requests; empty leaves the work endpoints open to anyone who can connect (default $SUITD_WORKER_TOKEN)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *stateDir == "" {
		fmt.Fprintln(stderr, "suitd: -state is required: the daemon's cache and result store live there")
		return exitUsage
	}

	svc, err := service.New(service.Config{
		StateDir:      *stateDir,
		EngineWorkers: *workers,
		ExecJobs:      *execJobs,
		QueueDepth:    *queueDepth,
		Dist: dist.Config{
			LeaseTTL:       *leaseTTL,
			RemoteAttempts: *remoteAttempts,
			RemoteOnly:     *remoteOnly,
			WorkerToken:    *workerToken,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "suitd:", err)
		return exitUsage
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "suitd:", err)
		return exitErr
	}
	server := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	fmt.Fprintf(stderr, "suitd: serving on %s (state %s, %d engine workers, queue %d)\n",
		ln.Addr(), *stateDir, *workers, *queueDepth)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let running sweeps finish
		// inside the drain budget, then cancel — the scenario cache
		// makes the cancellation lossless.
		fmt.Fprintf(stderr, "suitd: signal received, draining (timeout %s)\n", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
		defer cancel()
		if err := svc.Drain(drainCtx); err != nil {
			fmt.Fprintln(stderr, "suitd: drain timeout hit; finished points of interrupted sweeps are cached for a resubmission after restart")
		}
		if err := server.Shutdown(drainCtx); err != nil {
			server.Close()
		}
		fmt.Fprintln(stderr, "suitd: drained")
		return exitOK
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return exitOK
		}
		fmt.Fprintln(stderr, "suitd:", err)
		return exitErr
	}
}
