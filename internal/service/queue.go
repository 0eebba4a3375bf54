package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/sweep"
)

// ErrQueueFull is returned by Submit when the bounded queue has no room;
// the HTTP layer maps it to 503 so clients can back off and retry.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: server is shutting down")

// Options configures a Server. The zero value is usable: a memory-only
// store, 2 in-process nodes, a 64-deep queue, and a private build cache.
type Options struct {
	// DataDir roots the content-addressed result store; "" keeps results
	// in memory only (they die with the process).
	DataDir string
	// Workers is the number of in-process nodes executing jobs
	// concurrently (0 = 2; negative = none — a coordinator-only server
	// whose work is executed entirely by remote worker nodes). They lease
	// work exactly like remote nodes, attributed to WorkerLocal. Results
	// never depend on it.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (0 = 64); submissions beyond it fail with ErrQueueFull. It is the
	// server's only admission rule. Requeues of already-accepted jobs
	// (crash recovery) are exempt — recovery never competes with fresh
	// submissions for queue room — and so are campaign batch children:
	// a campaign is one admission decision.
	QueueDepth int
	// MCWorkers is the Monte Carlo worker-pool size each running job
	// uses (0 = GOMAXPROCS). With several in-process nodes, a small value
	// avoids oversubscribing the CPUs; results never depend on it.
	MCWorkers int
	// JobHistory bounds the job registry (0 = 4096): when exceeded, the
	// oldest *terminal* jobs are evicted so an always-on server's memory
	// stays flat under sustained submissions. Results are unaffected —
	// they live in the content-addressed store — only the evicted job
	// IDs stop resolving on GET /v1/jobs/{id}. Queued and running jobs
	// are never evicted.
	JobHistory int
	// MaxAttempts bounds how many times one job is executed before it is
	// declared failed (0 = 3). Panics, execution errors and expired
	// leases all consume an attempt; the full failure history is kept in
	// JobStatus.Failures.
	MaxAttempts int
	// Lease is each running attempt's heartbeat deadline (0 = 30s). The
	// executor renews it on every progress event (a shard for sweeps, a
	// merge for traces); the watchdog declares any attempt that misses
	// it dead and requeues the job. Retried executions are bit-identical
	// to undisturbed ones — determinism makes the retry safe.
	Lease time.Duration
	// JobTimeout, when > 0, is the default wall-time bound per execution
	// attempt; a job's spec TimeoutMs overrides it. Lease grants carry
	// the effective bound, so remote nodes enforce it too. Exceeding it
	// fails the job with stop reason "timeout".
	JobTimeout time.Duration
	// Hooks are test-only fault-injection points (nil in production).
	Hooks *Hooks
	// Cache, when non-nil, is the shared build cache; otherwise the
	// server creates one for its lifetime. Every job executed by the
	// server reuses it, so repeated specs skip circuit/DEM/decoder-graph
	// builds even across different jobs.
	Cache *sweep.BuildCache
	// Metrics, when non-nil, is the registry the server's metric
	// families register on (serve it at GET /metrics — Handler already
	// does). nil gives the server a private registry: every counter
	// still exists, because Stats() is derived from it. One registry
	// should back at most one Server.
	Metrics *obs.Registry
	// Spans, when non-nil, receives job/attempt/lease span events as
	// NDJSON (see obs.SpanEvent). nil disables tracing output; trace
	// IDs are still minted and propagated either way.
	Spans *obs.SpanWriter
	// Logger, when non-nil, receives structured leveled log events for
	// operationally interesting transitions: lease expiry, requeue,
	// integrity failure. nil is silent.
	Logger *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Workers < 0 {
		o.Workers = 0 // coordinator-only: remote nodes do the executing
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.JobHistory == 0 {
		o.JobHistory = 4096
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 1
	}
	if o.Lease == 0 {
		o.Lease = 30 * time.Second
	}
	if o.Cache == nil {
		o.Cache = sweep.NewBuildCache()
	}
	return o
}

// job pairs a resolved spec with its mutable status. Watchers observe
// updates through the changed channel, which is closed and replaced on
// every mutation (a broadcast that never blocks the updater).
//
// The attempt machinery lives here too: status.Attempt doubles as the
// attempt token — every status mutation from an executor carries the
// token it was dispatched with and is dropped when a newer attempt (or
// a terminal transition) has superseded it, so a zombie worker whose
// lease expired can never corrupt the retried job's state.
type job struct {
	res *resolvedJob

	mu      sync.Mutex
	status  JobStatus
	changed chan struct{}
	// cancel stops the current in-process attempt's context (nil when no
	// attempt is running, and for remote attempts — their reclamation is
	// the lease expiring). lease is the current attempt's heartbeat
	// deadline, renewed on every progress event or heartbeat; the
	// watchdog reaps attempts past it.
	cancel context.CancelFunc
	lease  time.Time
	// attemptStart is when the current attempt began (zero when no
	// attempt is running); feeds span durations and the shots/s gauge.
	attemptStart time.Time

	// Immutable after registration.
	child bool // a campaign batch child (exempt from QueueDepth)

	// Guarded by s.mu (not j.mu): settle ran, so the job span has ended.
	settled bool
}

func newJob(id string, r *resolvedJob, state string, cacheHit bool) *job {
	return &job{
		res: r,
		status: JobStatus{
			ID: id, State: state, CacheHit: cacheHit, Key: r.key,
			Spec: &r.spec, QueuedMs: time.Now().UnixMilli(),
		},
		changed: make(chan struct{}),
	}
}

// snapshot returns a copy of the current status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// broadcastLocked wakes every watcher. Caller holds j.mu.
func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// watch streams status snapshots to fn (nil is allowed) until the job
// reaches a terminal state or the context ends, and returns the last
// snapshot seen. Every state change is observed; intermediate progress
// snapshots may be coalesced.
func (j *job) watch(ctx context.Context, fn func(JobStatus) error) (JobStatus, error) {
	for {
		j.mu.Lock()
		st := j.status
		ch := j.changed
		j.mu.Unlock()
		if fn != nil {
			if err := fn(st); err != nil {
				return st, err
			}
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Server is the embeddable simulation service: a bounded job queue,
// in-process nodes sharing one build cache, and a content-addressed
// result store. Create one with New, expose it over HTTP via Handler,
// and stop it with Close. All methods are safe for concurrent use.
//
// Lock ordering: s.mu may be taken and then a job's j.mu, never the
// reverse.
type Server struct {
	opts  Options
	store StoreBackend

	mu       sync.Mutex
	cond     *sync.Cond // signals pending work; waiters re-check closed
	pending  []*job     // FIFO of queued jobs (requeues appended at the back)
	jobs     map[string]*job
	order    []string        // job IDs in submission order
	inflight map[string]*job // content key → live (queued/running) job
	nextID   int
	closed   bool
	// Fleet state: registered worker nodes, live leases (in-process and
	// remote), campaign bookkeeping (campaign job ID → campaign; child
	// job → number of live campaigns referencing it).
	workers   map[string]*workerNode
	leases    map[string]*leaseRecord
	nextWkr   int
	nextLease int
	campaigns map[string]*campaign
	childRefs map[*job]int
	// Observability: every server counter lives in met's registry —
	// Stats() and /metrics read the same handles, so the compatibility
	// snapshot can never disagree with the exposition. spans and log
	// are nil-safe sinks (see Options.Spans / Options.Logger).
	met   *serverMetrics
	spans *obs.SpanWriter
	log   *obs.Logger

	quit chan struct{}
	wg   sync.WaitGroup
	cwg  sync.WaitGroup // campaign monitor goroutines (waited after wg)
}

// New starts a server: it opens the store and launches the in-process
// nodes and the lease watchdog.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	store, err := OpenStore(opts.DataDir)
	if err != nil {
		return nil, err
	}
	store.hooks = opts.Hooks
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newServerMetrics(reg, store.Stats, opts.Cache)
	s := &Server{
		opts:      opts,
		store:     &meteredStore{b: store, m: met},
		met:       met,
		spans:     opts.Spans,
		log:       opts.Logger,
		jobs:      make(map[string]*job),
		inflight:  make(map[string]*job),
		workers:   make(map[string]*workerNode),
		leases:    make(map[string]*leaseRecord),
		campaigns: make(map[string]*campaign),
		childRefs: make(map[*job]int),
		quit:      make(chan struct{}),
	}
	reg.OnScrape(s.observeFleetGauges)
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.localNode()
	}
	s.wg.Add(1)
	go s.watchdog()
	return s, nil
}

// Store exposes the server's result-store backend (read-mostly: the
// HTTP layer serves GET /v1/results/{key} straight from it).
func (s *Server) Store() StoreBackend { return s.store }

// Submit resolves, deduplicates and enqueues a job, returning its
// initial status:
//
//   - a result already in the store answers immediately with a done,
//     cache-hit job (no work queued);
//   - an identical job still in flight coalesces — the same JobStatus
//     (same ID) is returned to both submitters;
//   - otherwise the job enters the bounded queue, or ErrQueueFull.
//
// Campaign specs are scheduled rather than queued: the grid's batches
// become child jobs (deduplicated like any submission — shared or
// already-stored batches are not recomputed) and the returned status is
// the campaign parent's, observable like any job.
//
// Spec errors are reported as *SpecError so transports can distinguish
// a bad request from server trouble.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with an explicit trace ID (the value of an
// inbound X-Latticesim-Trace header). An empty or malformed traceID
// mints a fresh one, so every registered job carries a valid trace ID;
// a coalescing submission joins the live job's existing trace.
func (s *Server) SubmitTraced(spec JobSpec, traceID string) (JobStatus, error) {
	r, err := spec.resolve()
	if err != nil {
		return JobStatus{}, &SpecError{Err: err}
	}
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	// Dedup order matters and must happen under the server lock: a live
	// job covers the key until its terminal transition (which happens
	// only after the result is stored), so checking in-flight first and
	// the store second leaves no window in which a finishing job's
	// resubmission could re-queue and recompute. A finished job whose
	// slot settle has not freed yet defers to the store, as it will once
	// settle has run. Blobs are small, so a store read under the lock is
	// cheap.
	if live, exists := s.inflight[r.key]; exists {
		if st := live.snapshot(); !st.Terminal() {
			return st, nil
		}
	}
	if _, ok, err := s.store.Get(r.key); err != nil {
		return JobStatus{}, err
	} else if ok {
		j := s.addJobLocked(r, StateDone, true)
		j.status.DoneMs = time.Now().UnixMilli()
		j.status.TraceID = traceID
		s.met.submitted.Inc()
		s.met.storeHits.Inc()
		s.startJobSpan(j)
		return j.snapshot(), nil
	}
	if spec.Type == "campaign" {
		return s.submitCampaignLocked(r, traceID)
	}
	if s.freshQueuedLocked() >= s.opts.QueueDepth {
		return JobStatus{}, ErrQueueFull
	}
	j := s.addJobLocked(r, StateQueued, false)
	j.status.TraceID = traceID
	s.pending = append(s.pending, j)
	s.inflight[r.key] = j
	s.met.submitted.Inc()
	s.startJobSpan(j)
	s.cond.Signal()
	return j.snapshot(), nil
}

// freshQueuedLocked counts pending jobs that have never run — the
// population the QueueDepth bound applies to. Canceled-but-undrained
// entries, crash-recovery requeues (Attempt ≥ 1) and campaign batch
// children (their campaign was the one admission decision) are exempt,
// so cancellation frees queue room immediately, recovery can't be
// starved by a full queue, and an admitted campaign is never cut off
// halfway. Caller holds s.mu.
func (s *Server) freshQueuedLocked() int {
	n := 0
	for _, j := range s.pending {
		j.mu.Lock()
		if j.status.State == StateQueued && j.status.Attempt == 0 && !j.child {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// addJobLocked registers a new job under the next ID and evicts the
// oldest terminal jobs beyond the retention cap. Caller holds s.mu.
func (s *Server) addJobLocked(r *resolvedJob, state string, cacheHit bool) *job {
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, r, state, cacheHit)
	s.jobs[id] = j
	s.order = append(s.order, id)
	for len(s.order) > s.opts.JobHistory {
		evicted := false
		for i, old := range s.order {
			// Never evict the job being registered: its ID is about to be
			// handed to the submitter (possible when every older job is
			// still live, e.g. a cache hit landing on a full queue).
			if old == id {
				continue
			}
			if s.jobs[old].snapshot().Terminal() {
				delete(s.jobs, old)
				delete(s.campaigns, old)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			// Everything retained is still queued or running; let the
			// registry run over the cap rather than lose live jobs (the
			// bounded queue already limits how far over it can get).
			break
		}
	}
	return j
}

// Job returns the status of a submitted job.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// Jobs lists every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	return out
}

// Watch streams a job's status snapshots to fn until it reaches a
// terminal state (or ctx ends) and returns the final snapshot.
func (s *Server) Watch(ctx context.Context, id string, fn func(JobStatus) error) (JobStatus, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false, nil
	}
	st, err := j.watch(ctx, fn)
	return st, true, err
}

// Cancel stops a job: a queued job is marked canceled without ever
// running (its queue entry is skipped when drained, and its queue slot
// frees immediately), a running job has its attempt context canceled —
// execution stops at the next shard boundary and any partial tally is
// discarded. Canceling a terminal job is a no-op that returns its
// final status, so Cancel is idempotent. The in-flight dedup slot is
// released, so resubmitting the same spec starts a fresh job.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.cancelJob(j), true
}

// cancelJob performs the cancel transition on a job (idempotent on
// terminal jobs). Canceling a campaign parent settles its children too:
// the monitor goroutine observes the parent's transition and cancels
// every child no other live campaign still references.
func (s *Server) cancelJob(j *job) JobStatus {
	st, ok := s.transition(j, live, "canceled", func(st *JobStatus) {
		st.State = StateCanceled
		st.StopReason = StopReasonCanceled
	})
	if ok {
		s.met.cancels.Inc()
	}
	return st
}

// Stats is the server-level counter snapshot of GET /v1/stats, derived
// from the same metric registry /metrics renders (so the two cannot
// disagree).
type Stats struct {
	// Jobs counts registered submissions: cache hits, fresh jobs, and
	// campaign parents. Campaign batch children are internal work units,
	// reported separately as BatchChildren rather than inflating Jobs
	// (the per-state counts below include them — they are what occupies
	// the queue and the workers).
	Jobs            int `json:"jobs"`
	BatchChildren   int `json:"batch_children"`
	Queued          int `json:"queued"`
	Running         int `json:"running"`
	Done            int `json:"done"`
	Failed          int `json:"failed"`
	Canceled        int `json:"canceled"`
	IntegrityErrors int `json:"integrity_errors"`
	// Attempts counts execution attempts dispatched to workers; Requeues
	// counts crash-recovery requeues (panics, execution errors, expired
	// leases) — a healthy server has Requeues 0 and Attempts equal to
	// jobs executed. Cancellations counts Cancel calls that stopped a
	// live job.
	Attempts      int `json:"attempts"`
	Requeues      int `json:"requeues"`
	Cancellations int `json:"cancellations"`
	// IntegrityChecks counts late-completion byte-compares against the
	// stored result (a superseded attempt finishing after its retry);
	// IntegrityFailures counts the compares that found a mismatch —
	// always 0 unless determinism is broken. StoreCorruptions counts
	// checksum failures the store detected and healed.
	IntegrityChecks   int `json:"integrity_checks"`
	IntegrityFailures int `json:"integrity_failures"`
	StoreCorruptions  int `json:"store_corruptions"`
	// Fleet counters. Workers counts registered worker nodes (in-process
	// nodes are not registered); ActiveLeases counts attempts currently
	// leased out, to in-process and remote nodes alike; Campaigns counts
	// campaigns ever scheduled (store hits excluded).
	Workers      int `json:"workers"`
	ActiveLeases int `json:"active_leases"`
	// Deprecated: tail stealing is retired, so Steals always reads 0.
	// It stays on the wire for one release (API.md, "Deprecation
	// policy").
	Steals    int `json:"steals"`
	Campaigns int `json:"campaigns"`
	// StoreHits counts submissions answered from the result store;
	// StorePuts counts results written by this process.
	StoreHits int `json:"store_hits"`
	StorePuts int `json:"store_puts"`
	// BuildHits / BuildMisses are the shared sweep.BuildCache counters:
	// pipeline fetches served without building vs. builds performed,
	// rebuilds after an eviction included. BuildBytes is the estimated
	// heap the cache holds now and BuildEvictions the pipelines it has
	// dropped to stay within its budget; both are optional on the wire
	// (absent reads 0).
	BuildHits      int   `json:"build_hits"`
	BuildMisses    int   `json:"build_misses"`
	BuildBytes     int64 `json:"build_bytes,omitempty"`
	BuildEvictions int   `json:"build_evictions,omitempty"`
}

// Stats reports the current counters, reading the same registry
// handles GET /metrics renders.
func (s *Server) Stats() Stats {
	var st Stats
	st.StoreHits = int(s.met.storeHits.Value())
	st.Attempts = int(s.met.attempts.Value())
	st.Requeues = int(s.met.requeues.Value())
	st.Cancellations = int(s.met.cancels.Value())
	st.IntegrityChecks = int(s.met.integrityChecks.Value())
	st.IntegrityFailures = int(s.met.integrityFails.Value())
	st.Campaigns = int(s.met.campaigns.Value())
	s.mu.Lock()
	st.Workers = len(s.workers)
	for _, l := range s.leases {
		// A lease is active while its attempt still owns the job; records
		// of superseded or finished attempts linger only until the
		// watchdog's garbage sweep.
		if ls := l.j.snapshot(); ls.State == StateRunning && ls.Attempt == l.att {
			st.ActiveLeases++
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.child {
			st.BatchChildren++
		} else {
			st.Jobs++
		}
		switch j.snapshot().State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		case StateIntegrityError:
			st.IntegrityErrors++
		}
	}
	s.mu.Unlock()
	st.StorePuts, st.StoreCorruptions = s.store.Stats()
	st.BuildHits, st.BuildMisses = s.opts.Cache.Stats()
	st.BuildBytes, st.BuildEvictions = s.opts.Cache.Usage()
	return st
}

// Close stops the server: no new submissions are accepted, running
// in-process attempts finish (Close does not cancel them), and jobs
// still queued are failed with ErrClosed's message and stop reason
// "shutdown". Jobs still running once the in-process nodes have exited
// are necessarily remote-leased attempts or campaign parents — neither
// can make progress on a closed server, so they are failed the same
// way, which in turn unblocks every campaign monitor before Close
// returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	close(s.quit)
	s.wg.Wait()
	// The in-process nodes and the watchdog are gone; whatever is left
	// queued never (re)started. Queued jobs fail before running ones, and
	// come from the registry, not the pending queue: an attempt that
	// failed while the nodes stopped was requeued without a queue entry.
	s.mu.Lock()
	s.pending = nil
	var queued, running []*job
	for _, id := range s.order {
		switch j := s.jobs[id]; j.snapshot().State {
		case StateQueued:
			queued = append(queued, j)
		case StateRunning:
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	for _, j := range append(queued, running...) {
		s.transition(j, live, "shutdown", func(st *JobStatus) {
			st.State = StateFailed
			st.Error = ErrClosed.Error()
			st.StopReason = StopReasonShutdown
		})
	}
	s.cwg.Wait()
}

// watchdog periodically reaps running attempts whose lease expired: the
// worker is presumed wedged (or its execution stalled), the attempt's
// context is canceled so the goroutine can be reclaimed, and the job is
// requeued — or failed once MaxAttempts is exhausted.
func (s *Server) watchdog() {
	defer s.wg.Done()
	tick := s.opts.Lease / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.reapExpired(time.Now())
		}
	}
}

// reapExpired scans running jobs and expires those past their lease.
// Campaign parents are skipped — they hold no lease (their liveness is
// their children's), and their terminal transitions belong to the
// campaign monitor. The sweep also garbage-collects lease records that
// never got a terminal report (a dead node's) once their job has been
// terminal for over a lease period: kept that long so a straggler's
// late completion still reaches the integrity cross-check, dropped
// after so a long-lived coordinator's lease table stays flat.
func (s *Server) reapExpired(now time.Time) {
	s.mu.Lock()
	var expired []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.res.spec.Type == "campaign" {
			continue
		}
		j.mu.Lock()
		if j.status.State == StateRunning && now.After(j.lease) {
			expired = append(expired, j)
		}
		j.mu.Unlock()
	}
	grace := s.opts.Lease.Milliseconds()
	for id, l := range s.leases {
		st := l.j.snapshot()
		if st.Terminal() && st.DoneMs > 0 && now.UnixMilli()-st.DoneMs > grace {
			delete(s.leases, id)
		}
	}
	s.mu.Unlock()
	for _, j := range expired {
		s.expireAttempt(j, now)
	}
}

// expireAttempt declares the job's current attempt dead if its lease
// has passed: the failure is recorded, the attempt's context canceled,
// and the job requeued (or failed terminally when MaxAttempts is
// spent). The zombie executor, if it ever finishes, is fenced off by
// the attempt token.
func (s *Server) expireAttempt(j *job, now time.Time) {
	st, ok := s.transition(j, func(j *job) bool {
		return j.status.State == StateRunning && !now.Before(j.lease)
	}, "lease_expired", s.failAttempt(AttemptFailure{Reason: "lease_expired", AtMs: now.UnixMilli()},
		" missed its heartbeat lease"))
	if !ok {
		return
	}
	s.met.leaseExpiries.Inc()
	s.log.Warn("lease_expired", "job", st.ID, "attempt", st.Attempt, "worker", st.Worker,
		"failures", len(st.Failures), "terminal", st.Terminal())
	s.endLeaseSpans(j, st.Attempt, "expired")
}

// failAttempt is the edit of a failed attempt, by lease expiry or by a
// worker's failure report: f is recorded with the attempt and worker
// filled in, and the job is requeued, or failed once MaxAttempts
// failures are spent; what completes the error message.
func (s *Server) failAttempt(f AttemptFailure, what string) func(*JobStatus) {
	return func(st *JobStatus) {
		f.Attempt, f.Worker = st.Attempt, st.Worker
		st.Failures = append(st.Failures, f)
		if n := len(st.Failures); n < s.opts.MaxAttempts {
			st.State = StateQueued
		} else {
			st.State = StateFailed
			st.Error = fmt.Sprintf("attempt %d (failure %d/%d)%s", f.Attempt, n, s.opts.MaxAttempts, what)
			st.StopReason = StopReasonMaxAttempts
		}
	}
}

// Fences for transition: live admits any job not yet terminal, always
// admits every job, and attemptRunning admits the job while attempt att
// is running it.
func live(j *job) bool { return !j.status.Terminal() }
func always(*job) bool { return true }
func attemptRunning(att int) func(*job) bool {
	return func(j *job) bool { return j.status.Attempt == att && j.status.State == StateRunning }
}

// transition is the one state change of a registered job after its
// grant. Under j.mu it refuses unless admit does, takes the ending
// attempt's cancel func, applies edit, resets Progress if the job is
// queued again or else stamps DoneMs (once: an integrity failure keeps
// a done job's), ends the attempt's span with outcome if the job was
// running one — campaign parents and queued jobs have none — and wakes
// every watcher. Then it stops the ended attempt's context and requeues
// or settles the job. It returns the resulting status and whether admit
// allowed the change. It takes s.mu, so callers must not hold it.
func (s *Server) transition(j *job, admit func(*job) bool, outcome string, edit func(*JobStatus)) (JobStatus, bool) {
	j.mu.Lock()
	if !admit(j) {
		st := j.status
		j.mu.Unlock()
		return st, false
	}
	ended := j.status.State == StateRunning && j.status.Attempt > 0
	cancel := j.cancel
	j.cancel = nil
	edit(&j.status)
	if j.status.State == StateQueued {
		j.status.Progress = Progress{}
	} else if j.status.DoneMs == 0 {
		j.status.DoneMs = time.Now().UnixMilli()
	}
	st := j.status
	if ended {
		// Before the new state is visible, so whoever observes it finds
		// the attempt span already ended.
		s.endAttemptSpan(st, j.attemptStart, outcome)
	}
	j.broadcastLocked()
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if st.State == StateQueued {
		s.requeue(j)
	} else {
		s.settle(j)
	}
	return st, true
}

// requeue puts an already-accepted job back on the pending queue,
// bypassing the QueueDepth bound (recovery must not fail on a busy
// server).
func (s *Server) requeue(j *job) {
	s.met.requeues.Inc()
	s.log.Info("requeue", "job", j.snapshot().ID)
	s.mu.Lock()
	if !s.closed {
		s.pending = append(s.pending, j)
		s.cond.Signal()
	}
	// Shutting down: the requeue would never be drained (Close fails
	// the job instead), but it still counts — the job's recovery was
	// attempted.
	s.mu.Unlock()
}

// settle finalizes a job's server-side accounting after its terminal
// transition: the in-flight dedup slot is freed (always after the
// transition — and, for done jobs, after the store write — so a
// coalescing submission either joins the live job or hits the stored
// result, never reruns a completed spec), and the job span ends exactly
// once, although an integrity failure settles a done job a second time.
func (s *Server) settle(j *job) {
	s.mu.Lock()
	if s.inflight[j.res.key] == j {
		delete(s.inflight, j.res.key)
	}
	first := !j.settled
	j.settled = true
	s.mu.Unlock()
	if first {
		// Exactly-once per job, whatever terminal paths raced: close the
		// job span and drop its per-job throughput series.
		st := j.snapshot()
		s.endJobSpan(st, spanKind(j))
		s.met.shotsPerSec.Delete(st.ID)
	}
}

// touch applies a progress update for attempt att and renews its lease.
// Stale attempts (superseded, expired or terminal) are fenced off, so a
// zombie worker can neither roll a retried job's progress back nor keep
// a dead lease alive. Progress is monotone: a report that doesn't
// advance Done still renews the lease (it proves liveness — remote
// heartbeats carry no progress at all) but isn't broadcast, so watchers
// only wake on real movement.
func (s *Server) touch(j *job, att int, p Progress) {
	now := time.Now()
	j.mu.Lock()
	if j.status.Attempt != att || j.status.State != StateRunning {
		j.mu.Unlock()
		return
	}
	// Heartbeat age: time since the previous renewal (the lease deadline
	// minus the lease period), observed before renewing.
	age := now.Sub(j.lease.Add(-s.opts.Lease))
	j.lease = now.Add(s.opts.Lease)
	var rate float64
	id := j.status.ID
	if p.Done > j.status.Progress.Done {
		j.status.Progress = p
		if p.Unit == "shots" && !j.attemptStart.IsZero() {
			if elapsed := now.Sub(j.attemptStart).Seconds(); elapsed > 0 {
				rate = float64(p.Done) / elapsed
			}
		}
		j.broadcastLocked()
	}
	j.mu.Unlock()
	s.met.leaseRenewals.Inc()
	if age > 0 {
		s.met.heartbeatAge.Observe(age.Seconds())
	}
	if rate > 0 {
		s.met.shotsPerSec.With(id).Set(rate)
	}
}

// retryOrFail records attempt att's failure and either requeues the
// job or, with MaxAttempts spent, fails it terminally with the full
// history (no-op if superseded).
func (s *Server) retryOrFail(j *job, att int, reason string, err error, now time.Time) {
	s.transition(j, attemptRunning(att), reason, s.failAttempt(
		AttemptFailure{Reason: reason, Error: err.Error(), AtMs: now.UnixMilli()},
		fmt.Sprintf(": %s: %v", reason, err)))
}

// integrityCheck byte-compares a late completion's result against the
// store. Determinism says they must match; a mismatch flips the job to
// integrity_error — even a job already marked done, because the service
// can no longer vouch for which bytes are canonical. worker names the
// source of the late bytes (WorkerLocal or a worker ID) so a cross-node
// mismatch identifies the offending box.
func (s *Server) integrityCheck(j *job, data []byte, worker string) {
	s.met.integrityChecks.Inc()
	err := s.store.Put(j.res.key, data)
	if errors.Is(err, ErrStoreMismatch) {
		s.integrityFail(j, fmt.Errorf("late completion from worker %s: %w", worker, err))
	}
}

// integrityFail marks the job integrity_error (overriding done — the
// result's provenance is compromised either way) and counts the event.
func (s *Server) integrityFail(j *job, err error) {
	st, _ := s.transition(j, always, "integrity_error", func(st *JobStatus) {
		st.State = StateIntegrityError
		st.Error = err.Error()
		st.StopReason = StopReasonIntegrity
	})
	s.met.integrityFails.Inc()
	s.log.Error("integrity_failure", "job", st.ID, "error", st.Error)
}

// SpecError marks a submission rejected for a malformed or invalid
// spec, as opposed to server-side trouble.
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }
