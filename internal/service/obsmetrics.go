package service

import (
	"fmt"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/sweep"
)

// serverMetrics bundles every metric handle the coordinator maintains.
// The registry is the single source of truth for all server counters:
// Stats() (the /v1/stats compatibility snapshot) reads the same handles
// /metrics renders, so the two can never disagree.
//
// Cardinality is bounded by design: the only per-job series is the
// shots/s gauge, and settle deletes it at the job's terminal
// transition.
type serverMetrics struct {
	reg *obs.Registry

	// Queue / job lifecycle counters.
	submitted       *obs.Counter
	storeHits       *obs.Counter
	attempts        *obs.Counter
	requeues        *obs.Counter
	cancels         *obs.Counter
	campaigns       *obs.Counter
	integrityChecks *obs.Counter
	integrityFails  *obs.Counter

	// Lease lifecycle.
	leaseGrants   *obs.Counter
	leaseRenewals *obs.Counter
	leaseExpiries *obs.Counter
	heartbeatAge  *obs.Histogram

	// Store traffic (the put/corruption totals are CounterFunc mirrors
	// of the backend's own counters, registered in newServerMetrics).
	storeGets     *obs.CounterVec // result = hit | miss
	storeGetDur   *obs.Histogram
	storePutBytes *obs.Counter

	// Per-running-job decode throughput, fed by progress heartbeats.
	shotsPerSec *obs.GaugeVec // job

	// Scrape-time gauges, set by the OnScrape callback from the
	// authoritative queue/fleet state under s.mu.
	queueDepth   *obs.Gauge
	queueFresh   *obs.Gauge
	jobsByState  *obs.GaugeVec // state
	activeLeases *obs.Gauge
	workersGauge *obs.Gauge
	batchesOut   *obs.Gauge
}

// jobStates enumerates every JobStatus.State for the per-state gauge,
// pre-registered so all six series render from the first scrape.
var jobStates = []string{
	StateQueued, StateRunning, StateDone, StateFailed,
	StateCanceled, StateIntegrityError,
}

// newServerMetrics registers the coordinator's metric families on reg
// and returns the handles. backendStats and the build cache are read at
// scrape time to mirror counters they own without keeping drifting
// copies.
func newServerMetrics(reg *obs.Registry, backendStats func() (puts, corruptions int), cache *sweep.BuildCache) *serverMetrics {
	m := &serverMetrics{
		reg: reg,

		submitted:       reg.Counter("latticesim_jobs_submitted_total", "Submissions that registered a job (cache hits, fresh jobs, and campaign parents; batch children excluded)."),
		storeHits:       reg.Counter("latticesim_store_hits_total", "Submissions answered straight from the result store."),
		attempts:        reg.Counter("latticesim_attempts_total", "Execution attempts dispatched, each under its own lease."),
		requeues:        reg.Counter("latticesim_requeues_total", "Crash-recovery requeues: panics, execution errors, expired leases."),
		cancels:         reg.Counter("latticesim_cancellations_total", "Cancel calls that stopped a live job."),
		campaigns:       reg.Counter("latticesim_campaigns_total", "Campaigns ever scheduled (store hits excluded)."),
		integrityChecks: reg.Counter("latticesim_integrity_checks_total", "Late-completion byte-compares against the stored result."),
		integrityFails:  reg.Counter("latticesim_integrity_failures_total", "Byte-compares that found a mismatch (always 0 unless determinism is broken)."),

		leaseGrants:   reg.Counter("latticesim_lease_grants_total", "Leases granted to in-process and remote nodes."),
		leaseRenewals: reg.Counter("latticesim_lease_renewals_total", "Lease renewals: in-process progress events and remote heartbeats."),
		leaseExpiries: reg.Counter("latticesim_lease_expiries_total", "Attempts the watchdog declared dead after a missed heartbeat."),
		heartbeatAge:  reg.Histogram("latticesim_lease_heartbeat_age_seconds", "Time since the previous lease renewal, observed at each renewal.", nil),

		storeGets:     reg.CounterVec("latticesim_store_gets_total", "Result-store reads by outcome.", "result"),
		storeGetDur:   reg.Histogram("latticesim_store_get_seconds", "Result-store read latency (includes checksum verification on disk hits).", nil),
		storePutBytes: reg.Counter("latticesim_store_put_bytes_total", "Result bytes accepted by the store."),

		shotsPerSec: reg.GaugeVec("latticesim_job_shots_per_second", "Decode throughput of each running sweep job (series deleted at the job's terminal state).", "job"),

		queueDepth:   reg.Gauge("latticesim_queue_depth", "Pending queue entries (fresh submissions and requeues)."),
		queueFresh:   reg.Gauge("latticesim_queue_fresh", "Pending entries that have never run — the population the QueueDepth bound applies to."),
		jobsByState:  reg.GaugeVec("latticesim_jobs", "Registered jobs by state (campaign batch children included).", "state"),
		activeLeases: reg.Gauge("latticesim_active_leases", "Attempts currently leased out and still owning their job."),
		workersGauge: reg.Gauge("latticesim_workers", "Registered worker nodes."),
		batchesOut:   reg.Gauge("latticesim_campaign_batches_outstanding", "Campaign batch children not yet terminal."),
	}
	for _, st := range jobStates {
		m.jobsByState.With(st).Set(0)
	}
	m.storeGets.With("hit").Add(0)
	m.storeGets.With("miss").Add(0)
	reg.CounterFunc("latticesim_store_puts_total", "Results written by this process (mirrors the store backend's counter).", func() float64 {
		p, _ := backendStats()
		return float64(p)
	})
	reg.CounterFunc("latticesim_store_corruptions_total", "Checksum failures the store detected and healed.", func() float64 {
		_, c := backendStats()
		return float64(c)
	})
	cache.RegisterMetrics(reg)
	return m
}

// Metrics exposes the server's metric registry (also served at
// GET /metrics by Handler). When Options.Metrics was nil the registry
// is private to the server but fully populated either way — Stats()
// reads from it.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// observeFleetGauges is the registry's OnScrape callback: it snapshots
// queue depth, per-state job counts, leases, workers, and outstanding
// campaign batches from the authoritative state under s.mu into plain
// gauges. Lock order is s.mu then j.mu, same as everywhere else.
func (s *Server) observeFleetGauges() {
	s.mu.Lock()
	depth := len(s.pending)
	fresh := s.freshQueuedLocked()
	workers := len(s.workers)
	active := 0
	for _, l := range s.leases {
		if ls := l.j.snapshot(); ls.State == StateRunning && ls.Attempt == l.att {
			active++
		}
	}
	counts := make(map[string]int, len(jobStates))
	batchesOut := 0
	for _, id := range s.order {
		j := s.jobs[id]
		st := j.snapshot()
		counts[st.State]++
		if j.child && !st.Terminal() {
			batchesOut++
		}
	}
	s.mu.Unlock()

	m := s.met
	m.queueDepth.Set(float64(depth))
	m.queueFresh.Set(float64(fresh))
	m.workersGauge.Set(float64(workers))
	m.activeLeases.Set(float64(active))
	m.batchesOut.Set(float64(batchesOut))
	for _, st := range jobStates {
		m.jobsByState.With(st).Set(float64(counts[st]))
	}
}

// meteredStore wraps the server's store backend with read/write
// metrics. Stats forwards to the backend, so Server.Store().Stats()
// keeps reporting the authoritative put/corruption counts.
type meteredStore struct {
	b StoreBackend
	m *serverMetrics
}

func (ms *meteredStore) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := ms.b.Get(key)
	ms.m.storeGetDur.Observe(time.Since(start).Seconds())
	if ok {
		ms.m.storeGets.With("hit").Inc()
	} else {
		ms.m.storeGets.With("miss").Inc()
	}
	return data, ok, err
}

func (ms *meteredStore) Put(key string, data []byte) error {
	err := ms.b.Put(key, data)
	if err == nil {
		ms.m.storePutBytes.Add(int64(len(data)))
	}
	return err
}

func (ms *meteredStore) Stats() (puts, corruptions int) { return ms.b.Stats() }

// spanKind names a job's span: campaign parents trace as "campaign",
// everything else as "job".
func spanKind(j *job) string {
	if j.res.spec.Type == "campaign" {
		return "campaign"
	}
	return "job"
}

// startJobSpan emits the job's start event (and, for jobs born
// terminal — cache hits — the matching end event).
func (s *Server) startJobSpan(j *job) {
	if s.spans == nil {
		return
	}
	st := j.snapshot()
	ev := obs.SpanEvent{Trace: st.TraceID, Span: st.ID, Name: spanKind(j), Job: st.ID}
	s.spans.Start(ev)
	if st.Terminal() {
		s.spans.End(ev, time.Time{}, st.State)
	}
}

// endJobSpan emits the job's end event with its queued→done duration.
// Called exactly once per job, from settle's settled-flag guard.
func (s *Server) endJobSpan(st JobStatus, kind string) {
	if s.spans == nil {
		return
	}
	ev := obs.SpanEvent{Trace: st.TraceID, Span: st.ID, Name: kind, Job: st.ID}
	if st.DoneMs > 0 && st.QueuedMs > 0 && st.DoneMs >= st.QueuedMs {
		ev.DurMs = st.DoneMs - st.QueuedMs
	}
	ev.Phase = "end"
	ev.Outcome = st.State
	s.spans.Emit(ev)
}

// attemptSpanID is the deterministic span ID of a job's n-th attempt.
func attemptSpanID(jobID string, att int) string {
	return fmt.Sprintf("%s/a%d", jobID, att)
}

// startAttemptSpan emits an attempt's start event.
func (s *Server) startAttemptSpan(st JobStatus) {
	if s.spans == nil {
		return
	}
	s.spans.Start(obs.SpanEvent{
		Trace: st.TraceID, Span: attemptSpanID(st.ID, st.Attempt), Parent: st.ID,
		Name: "attempt", Job: st.ID, Attempt: st.Attempt, Worker: st.Worker,
	})
}

// endAttemptSpan emits the end event of st's attempt with its wall
// duration since start.
func (s *Server) endAttemptSpan(st JobStatus, start time.Time, outcome string) {
	if s.spans == nil {
		return
	}
	s.spans.End(obs.SpanEvent{
		Trace: st.TraceID, Span: attemptSpanID(st.ID, st.Attempt), Parent: st.ID,
		Name: "attempt", Job: st.ID, Attempt: st.Attempt, Worker: st.Worker,
	}, start, outcome)
}

// startLeaseSpan emits a lease's start event (child of the attempt it
// fences).
func (s *Server) startLeaseSpan(l *leaseRecord, st JobStatus) {
	if s.spans == nil {
		return
	}
	s.spans.Start(obs.SpanEvent{
		Trace: st.TraceID, Span: l.id, Parent: attemptSpanID(st.ID, l.att),
		Name: "lease", Job: st.ID, Attempt: l.att, Worker: l.wkr,
	})
}

// endLeaseSpan emits a lease's end event.
func (s *Server) endLeaseSpan(l *leaseRecord, outcome string) {
	if s.spans == nil {
		return
	}
	st := l.j.snapshot()
	s.spans.End(obs.SpanEvent{
		Trace: st.TraceID, Span: l.id, Parent: attemptSpanID(st.ID, l.att),
		Name: "lease", Job: st.ID, Attempt: l.att, Worker: l.wkr,
	}, l.granted, outcome)
}

// endLeaseSpans closes every live lease record fencing attempt att of
// j — the expiry path, where the lease dies without a worker report.
func (s *Server) endLeaseSpans(j *job, att int, outcome string) {
	if s.spans == nil {
		return
	}
	s.mu.Lock()
	var ls []*leaseRecord
	for _, l := range s.leases {
		if l.j == j && l.att == att {
			ls = append(ls, l)
		}
	}
	s.mu.Unlock()
	for _, l := range ls {
		s.endLeaseSpan(l, outcome)
	}
}
