// Command suitworker is a crash-safe execution worker for suitd's
// distributed sweep tier: it pulls leased, fingerprint-addressed
// scenario units from a daemon over HTTP (-daemon), simulates them with
// the same deterministic core a local run would use, and posts
// digest-protected results back.
//
// Robustness model: the worker holds no durable state. If it crashes,
// is SIGKILLed, or partitions away mid-unit, its lease simply expires
// at the daemon and the unit is reassigned — at-least-once delivery is
// safe because every result is a pure function of its work unit, so
// duplicates verify against the recorded digest and dedup. A worker
// whose leases keep failing is quarantined by the daemon; stopping one
// (SIGTERM/SIGINT) just stops claiming and lets in-flight leases lapse.
// The daemon holds each claim until a unit is ready, so an idle worker
// waits there instead of polling; it backs off only after a failed
// claim, such as the 503 of a draining daemon.
// Daemons running with -worker-token require the matching -token (or
// $SUITD_WORKER_TOKEN) on every request.
//
// Any number of workers — including zero — leave the daemon's stored
// results byte-identical; workers only change where the cycles burn.
//
// Exit codes: 0 after a stop, 1 usage error (a missing -daemon, an
// unknown flag).
//
// Example:
//
//	suitworker -daemon http://127.0.0.1:8470 -slots 4
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"suit/internal/dist"
)

const (
	exitOK    = 0
	exitUsage = 1
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its context, arguments, streams and exit status
// lifted out, so tests can drive the worker in-process. Cancelling ctx
// stops it as SIGTERM does in main. The worker writes only to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suitworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		daemon  = fs.String("daemon", "", "base URL of the suitd daemon to pull work from; required")
		id      = fs.String("id", "", "worker ID for lease accounting and quarantine (default host/pid derived)")
		slots   = fs.Int("slots", runtime.GOMAXPROCS(0), "units simulated concurrently")
		retries = fs.Int("result-attempts", 4, "delivery attempts per result on transport/5xx failures (the daemon dedups duplicates by digest)")
		token   = fs.String("token", os.Getenv("SUITD_WORKER_TOKEN"), "bearer token for daemons running with -worker-token (default $SUITD_WORKER_TOKEN)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *daemon == "" {
		fmt.Fprintln(stderr, "suitworker: -daemon is required (e.g. http://127.0.0.1:8470)")
		return exitUsage
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	w, err := dist.NewWorker(dist.WorkerConfig{
		BaseURL:        *daemon,
		ID:             *id,
		Token:          *token,
		Slots:          *slots,
		ResultAttempts: *retries,
	})
	if err != nil {
		fmt.Fprintln(stderr, "suitworker:", err)
		return exitUsage
	}

	fmt.Fprintf(stderr, "suitworker: %s pulling from %s (%d slots)\n", *id, *daemon, *slots)
	w.Run(ctx) //nolint:errcheck // the only error is the shutdown signal's
	st := w.Stats()
	fmt.Fprintf(stderr, "suitworker: stopping after %d claims, %d completed, %d errors\n",
		st.Claims, st.Completed, st.Errors)
	return exitOK
}
