// Package worker implements the pull-based worker node of the
// distributed campaign fabric: a process that registers with a
// coordinator (internal/service), leases work units over HTTP, executes
// them through the same service.UnitRunner the coordinator's in-process
// nodes use, and reports results back under the lease's fencing token.
// Determinism makes the distribution invisible in the data: a unit
// computes the same bytes on any node, so the coordinator's store (and
// every campaign aggregate) is byte-identical however the fleet is
// shaped — one in-process node, many nodes, nodes dying mid-run.
//
// The node is deliberately stateless: its whole interaction with the
// coordinator is the lease protocol — register, lease, heartbeat,
// report — and a result reaches the coordinator's store only as a
// fenced completion report. Losing a node loses at most the lease's
// in-flight work, which the coordinator's watchdog requeues when the
// lease expires, without operator intervention.
package worker

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// Options configures a worker node. Coordinator is required; the zero
// value of everything else is usable.
type Options struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://127.0.0.1:8642" (required).
	Coordinator string
	// Name is the node's self-reported label (defaults to "worker");
	// display metadata only — the coordinator assigns the identifying ID
	// at registration.
	Name string
	// MCWorkers sizes the Monte Carlo pool each unit executes with
	// (0 = GOMAXPROCS). Results never depend on it.
	MCWorkers int
	// Cache, when non-nil, is the build cache shared with the rest of
	// the process; otherwise the worker creates one for its lifetime.
	Cache *sweep.BuildCache
	// Poll is the idle sleep between lease requests that found no work
	// (0 = 500ms).
	Poll time.Duration
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// BeforeExecute, when non-nil, runs before each leased unit executes,
	// under the unit's timeout and panic guard — a test seam for
	// stalling, failing or killing a node mid-unit. Returning an error
	// fails the unit without executing it.
	BeforeExecute func(ctx context.Context, grant *service.LeaseGrant) error
	// Metrics, when non-nil, receives the node's operational series:
	// lifetime unit-outcome counters mirrored from Stats, a heartbeat
	// counter, a unit wall-time histogram, and the Monte Carlo
	// pipeline's shard/predecoder series (the registry is threaded
	// through execution). nil disables instrumentation; results never
	// depend on it.
	Metrics *obs.Registry
	// Spans, when non-nil, receives one span pair per executed unit
	// (name "unit", span "<lease>/unit", parent "<lease>") carrying the
	// job's trace ID from the lease grant — the worker half of the
	// coordinator's per-job trace (see obs.TraceHeader).
	Spans *obs.SpanWriter
	// Logger, when non-nil, receives structured operational events
	// (lease abandonment, report failures). Logf stays the free-form
	// human log; both may be set.
	Logger *obs.Logger
}

// Stats counts a worker's lifetime outcomes.
type Stats struct {
	// Leased counts units granted; Completed and Failed the outcomes
	// reported; Abandoned the units dropped because the coordinator
	// invalidated the lease mid-execution (expired and re-leased, or
	// canceled).
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Abandoned int `json:"abandoned"`
}

// Worker is a node instance. Construct with New, drive with Run.
type Worker struct {
	opts   Options
	client *service.Client
	runner service.UnitRunner

	// Metric handles resolved once in New; all are nil-safe, so the
	// uninstrumented path costs nothing but the nil checks inside obs.
	heartbeats *obs.Counter
	unitDur    *obs.Histogram

	mu    sync.Mutex
	id    string
	stats Stats
}

// New builds a worker node for the coordinator in opts.
func New(opts Options) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("worker: Coordinator URL is required")
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	cache := opts.Cache
	if cache == nil {
		cache = sweep.NewBuildCache()
	}
	client := service.NewClient(opts.Coordinator)
	client.HTTPClient = opts.HTTPClient
	client.Retry = service.DefaultRetryPolicy()
	w := &Worker{
		opts:   opts,
		client: client,
		runner: service.UnitRunner{
			Cache: cache, MCWorkers: opts.MCWorkers, Metrics: opts.Metrics,
			Before: opts.BeforeExecute,
		},
	}
	// Mirror the lifetime outcome counters from Stats at scrape time —
	// Stats stays the one authoritative copy — and register the handles
	// the hot paths increment directly. Every obs call below is a no-op
	// on a nil registry.
	m := opts.Metrics
	m.CounterFunc("latticesim_worker_units_leased_total",
		"Work units granted to this node.",
		func() float64 { return float64(w.Stats().Leased) })
	m.CounterFunc("latticesim_worker_units_completed_total",
		"Work units this node reported complete.",
		func() float64 { return float64(w.Stats().Completed) })
	m.CounterFunc("latticesim_worker_units_failed_total",
		"Work units this node reported failed.",
		func() float64 { return float64(w.Stats().Failed) })
	m.CounterFunc("latticesim_worker_units_abandoned_total",
		"Work units dropped because the coordinator invalidated the lease.",
		func() float64 { return float64(w.Stats().Abandoned) })
	w.heartbeats = m.Counter("latticesim_worker_heartbeats_total",
		"Lease heartbeats this node sent.")
	w.unitDur = m.Histogram("latticesim_worker_unit_seconds",
		"Wall time per executed work unit.", obs.DefBuckets)
	return w, nil
}

// ID returns the coordinator-assigned worker ID ("" before the first
// successful registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Stats returns a snapshot of the node's outcome counters.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run registers the node and pulls work until ctx ends (its only
// non-nil return is ctx's error). Lease requests that find no work
// sleep Options.Poll; a coordinator that has forgotten the node's ID
// (a restart) triggers transparent re-registration; transport errors
// back off and retry — the node never gives up on a living fleet.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.client.LeaseWork(ctx, w.ID())
		switch {
		case err != nil && service.ErrorCode(err) == service.CodeNotFound:
			w.logf("worker %s: coordinator forgot us, re-registering", w.ID())
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("worker %s: lease request failed: %v", w.ID(), err)
			if err := sleepCtx(ctx, w.opts.Poll); err != nil {
				return err
			}
			continue
		case grant == nil:
			if err := sleepCtx(ctx, w.opts.Poll); err != nil {
				return err
			}
			continue
		}
		w.mu.Lock()
		w.stats.Leased++
		w.mu.Unlock()
		w.executeLease(ctx, grant)
	}
}

// register obtains a fresh worker ID, retrying until ctx ends.
func (w *Worker) register(ctx context.Context) error {
	for {
		info, err := w.client.RegisterWorker(ctx, w.opts.Name)
		if err == nil {
			w.mu.Lock()
			w.id = info.ID
			w.mu.Unlock()
			w.logf("worker %s: registered with %s", info.ID, w.opts.Coordinator)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("worker: registration failed: %v", err)
		if err := sleepCtx(ctx, w.opts.Poll); err != nil {
			return err
		}
	}
}

// executeLease runs one leased unit end to end: the shared UnitRunner
// (before-hook, timeout, execution) with a concurrent heartbeat, then
// the outcome report. A lease the coordinator invalidates mid-flight
// cancels execution and reports nothing: the unit belongs to someone
// else now.
func (w *Worker) executeLease(ctx context.Context, grant *service.LeaseGrant) {
	// The unit span is the worker-side leg of the job's trace: its ID
	// derives from the lease ID the coordinator minted, and its trace ID
	// rode in on the grant, so coordinator and worker events grep
	// together by either.
	span := obs.SpanEvent{
		Trace:  grant.TraceID,
		Span:   grant.LeaseID + "/unit",
		Parent: grant.LeaseID,
		Name:   "unit",
		Job:    grant.JobID,
		Worker: w.ID(),
	}
	began := time.Now()
	w.opts.Spans.Start(span)
	outcome := "complete"
	defer func() {
		w.opts.Spans.End(span, began, outcome)
		w.unitDur.Observe(time.Since(began).Seconds())
	}()

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Progress flows through a mailbox the heartbeat loop drains: every
	// LeaseMs/3 the node reports liveness (with the latest progress) and
	// learns whether the lease still owns the job.
	var pmu sync.Mutex
	var latest *service.Progress
	abandoned := false
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(grant.LeaseMs) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-execCtx.Done():
				return
			case <-t.C:
			}
			pmu.Lock()
			p := latest
			latest = nil
			pmu.Unlock()
			ack, err := w.client.UpdateLease(ctx, grant.LeaseID, service.LeaseUpdate{
				Event: "heartbeat", Progress: p,
			})
			w.heartbeats.Inc()
			if err == nil && !ack.Valid {
				abandoned = true
				cancel()
				return
			}
		}
	}()

	u := w.runner.Run(execCtx, grant, func(p service.Progress) {
		pmu.Lock()
		latest = &p
		pmu.Unlock()
	})
	cancel()
	<-hbDone

	if abandoned {
		w.mu.Lock()
		w.stats.Abandoned++
		w.mu.Unlock()
		outcome = "abandoned"
		w.logf("worker %s: lease %s invalidated, unit abandoned", w.ID(), grant.LeaseID)
		w.opts.Logger.Warn("unit_abandoned", "worker", w.ID(), "lease", grant.LeaseID, "job", grant.JobID)
		return
	}
	if ctx.Err() != nil && u.Event == "fail" {
		// The node itself is shutting down mid-unit; don't report a
		// failure the coordinator would charge against the job — the
		// lease will expire and the unit will be re-leased.
		outcome = "shutdown"
		return
	}
	outcome = w.report(ctx, grant, u)
}

// report sends the unit's outcome under its lease and returns the
// outcome label for the unit's span event.
func (w *Worker) report(ctx context.Context, grant *service.LeaseGrant, u service.LeaseUpdate) string {
	id := w.ID()
	ack, uerr := w.client.UpdateLease(ctx, grant.LeaseID, u)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case uerr != nil:
		w.logf("worker %s: reporting %s on %s failed: %v", id, u.Event, grant.LeaseID, uerr)
		w.opts.Logger.Warn("report_failed", "worker", id, "lease", grant.LeaseID, "event", u.Event, "error", uerr.Error())
		return "report_error"
	case !ack.Valid:
		w.stats.Abandoned++
		return "abandoned"
	case u.Event == "fail":
		w.stats.Failed++
		return "fail"
	default:
		w.stats.Completed++
		return "complete"
	}
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
