package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"latticesim/internal/service"
)

// runServe implements the `latticesim serve` subcommand: start the
// simulation service and serve its HTTP API until SIGINT/SIGTERM.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: latticesim serve [flags]

Starts the always-on simulation service: sweep-point, trace, batch and
campaign jobs are accepted over an HTTP/JSON API, executed by in-process
nodes sharing one build cache and/or by remote nodes
(`+"`latticesim worker`"+`) — both pulling leased work units from one queue
through the same lease protocol — and their results stored
content-addressed so identical re-submissions are served bit-identically
from cache. With -workers 0 the process is a pure coordinator: it
schedules and leases work but executes nothing itself.

API (see API.md for the full contract; DESIGN.md §11, §14, §15):
  POST   /v1/jobs              submit a job spec
  GET    /v1/jobs/{id}         job status (?watch=1 streams NDJSON)
  DELETE /v1/jobs/{id}         cancel a queued or running job
  POST   /v1/campaigns         submit a sweep-grid campaign
  GET    /v1/campaigns/{id}    campaign status with per-batch detail
  POST   /v1/workers           register a worker node
  POST   /v1/workers/{id}/lease  lease one work unit
  POST   /v1/leases/{id}       report on a leased unit
  GET/PUT /v1/results/{key}    stored result JSON
  GET    /v1/stats             queue/fleet/store/build-cache counters
  GET    /metrics              Prometheus text exposition
  GET    /healthz              liveness probe

Submit jobs with `+"`latticesim submit`"+`, add execution nodes with
`+"`latticesim worker`"+`, inspect a running fleet with
`+"`latticesim status`"+`, or use any HTTP client. The bounded queue
(-queue) is the only admission rule: a submission beyond it gets 503
with a retry hint, and a campaign's batches are exempt from it. With
-log-json every job, attempt and lease emits start/end span events
(NDJSON) keyed by the job's trace ID, which also rides the
X-Latticesim-Trace response header; -debug-addr serves pprof.

Flags:`)
		fs.PrintDefaults()
	}
	var (
		addr    = fs.String("addr", "127.0.0.1:8642", "listen address")
		data    = fs.String("data", "serve-data", "result-store directory (\"\" = memory only)")
		workers = fs.Int("workers", 2, "in-process nodes executing jobs concurrently, leasing work like remote nodes (0 = coordinator-only: all execution happens on remote worker nodes)")
		queue   = fs.Int("queue", 64, "bounded queue depth; submissions beyond it get 503")
		mcw     = fs.Int("mc-workers", 0, "Monte Carlo worker-pool size per running job (0 = GOMAXPROCS; results are independent of it)")
		quiet   = fs.Bool("quiet", false, "suppress startup and shutdown log lines")

		maxAttempts = fs.Int("max-attempts", 0, "failed execution attempts per job before it fails terminally; panics, errors and missed leases each consume one (0 = 3)")
		lease       = fs.Duration("lease", 0, "heartbeat lease per running attempt; an attempt that misses it is declared dead and the job requeued (0 = 30s)")
		jobTimeout  = fs.Duration("job-timeout", 0, "default wall-time bound per attempt, overridable per job via timeout_ms (0 = unbounded)")
		stealAge    = fs.Duration("steal-age", 0, "idle worker nodes may duplicate a running campaign-batch attempt whose lease was last renewed at least this long ago (0 = lease/2; negative disables stealing)")

		of = addObsFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sinks, err := of.open()
	if err != nil {
		return err
	}
	defer sinks.Close()

	lw := *workers
	if lw == 0 {
		lw = -1 // CLI 0 = coordinator-only; Options 0 would mean the default pool
	}
	svc, err := service.New(service.Options{
		DataDir: *data, Workers: lw, QueueDepth: *queue, MCWorkers: *mcw,
		MaxAttempts: *maxAttempts, Lease: *lease, JobTimeout: *jobTimeout,
		StealAge: *stealAge, Spans: sinks.Spans, Logger: sinks.Logger,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}
	if !*quiet {
		store := *data
		if store == "" {
			store = "(memory)"
		}
		fmt.Printf("latticesim serve: listening on http://%s (store %s, %d workers, queue %d)\n",
			ln.Addr(), store, *workers, *queue)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		if !*quiet {
			fmt.Printf("latticesim serve: %v, shutting down\n", s)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}
