package service

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// WorkerLocal is the JobStatus.Worker attribution for attempts executed
// by the coordinator's in-process nodes, distinguishing them from
// registered remote nodes (whose IDs are "w001", "w002", ...).
const WorkerLocal = "local"

// ErrUnknownWorker is returned by LeaseWork for an unregistered (or
// forgotten) worker ID; the HTTP layer maps it to 404 so the node knows
// to re-register — e.g. after the coordinator restarted.
var ErrUnknownWorker = errors.New("service: unknown worker")

// WorkerInfo is the coordinator's public record of a registered worker
// node, returned by POST /v1/workers and listed by GET /v1/workers.
type WorkerInfo struct {
	// ID is the coordinator-assigned handle ("w001", ...) the node uses
	// on every lease call; it is also the JobStatus.Worker attribution
	// for attempts the node executes.
	ID string `json:"id"`
	// Name is the node's self-reported label (host name, pod name) —
	// display metadata, not required to be unique.
	Name string `json:"name,omitempty"`
	// RegisteredMs / LastSeenMs are Unix-millisecond bookkeeping; no
	// determinism guarantee, like every timing field in the repo.
	RegisteredMs int64 `json:"registered_ms"`
	LastSeenMs   int64 `json:"last_seen_ms"`
	// Leased counts work units ever granted to the node (steals
	// included); Completed and Failed count the outcomes it reported.
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// workerNode is the server-side registration record. Guarded by s.mu.
type workerNode struct {
	info WorkerInfo
}

// leaseRecord ties a granted lease — to an in-process or a remote
// node — to the job attempt it fences. Immutable after creation; the
// map holding it is guarded by s.mu.
type leaseRecord struct {
	id      string
	j       *job
	att     int       // the fencing token minted at grant time
	wkr     string    // worker ID the unit was leased to (or WorkerLocal)
	granted time.Time // grant instant (span duration bookkeeping)
}

// LeaseGrant is the coordinator's answer to a successful lease request:
// one work unit, its fencing token, and the heartbeat contract.
type LeaseGrant struct {
	// LeaseID names this lease on subsequent POST /v1/leases/{id} calls.
	LeaseID string `json:"lease_id"`
	// JobID / Key identify the unit; Spec is its full normalized spec,
	// executable verbatim via UnitRunner. Spec.TimeoutMs is the
	// attempt's effective wall-time bound: the spec's own timeout_ms, or
	// else the coordinator's JobTimeout (0 = unbounded).
	JobID string  `json:"job_id"`
	Key   string  `json:"key"`
	Spec  JobSpec `json:"spec"`
	// Attempt is the fencing token: reports from an older attempt of the
	// same job are acknowledged Valid=false and (when they carry result
	// bytes) integrity-checked rather than applied.
	Attempt int `json:"attempt"`
	// LeaseMs is the heartbeat deadline: the worker must report
	// (heartbeat, progress, or completion) within this many milliseconds
	// of every previous report or the watchdog reclaims the unit.
	LeaseMs int64 `json:"lease_ms"`
	// Stolen marks a tail work-steal: the unit is (nominally) still
	// running elsewhere and this node is racing the straggler. Results
	// are unaffected — the loser's bytes are integrity-checked, not
	// stored twice.
	Stolen bool `json:"stolen,omitempty"`
	// TraceID is the job's trace ID, minted at submission. The HTTP
	// layer also carries it in the X-Latticesim-Trace response header;
	// workers stamp it on their unit span events so one grep reassembles
	// a campaign's full coordinator+fleet trace.
	TraceID string `json:"trace_id,omitempty"`
}

// LeaseUpdate is a worker's report on a leased unit: a bare heartbeat,
// a progress-carrying heartbeat, a completion with result bytes, or a
// failure with an error message.
type LeaseUpdate struct {
	// Event is "heartbeat", "complete" or "fail".
	Event string `json:"event"`
	// Progress optionally accompanies a heartbeat.
	Progress *Progress `json:"progress,omitempty"`
	// Result carries the unit's canonical result bytes on "complete".
	// (A []byte, not json.RawMessage: batch results are JSONL — multiple
	// JSON documents — so they wire-encode as base64.)
	Result []byte `json:"result,omitempty"`
	// Error carries the failure message on "fail".
	Error string `json:"error,omitempty"`
	// Reason optionally classifies a "fail": "timeout" (the unit
	// exceeded spec.timeout_ms) fails the job terminally with stop
	// reason "timeout"; "panic" and "error" (the default) consume one
	// attempt and are recorded as the failure's reason.
	Reason string `json:"reason,omitempty"`
}

// LeaseAck answers a LeaseUpdate. Valid=false tells the worker its
// lease no longer owns the job — expired, stolen and finished
// elsewhere, canceled, or simply unknown — and it should abandon the
// unit (dropping any partial work) and lease fresh work instead.
type LeaseAck struct {
	Valid bool `json:"valid"`
}

// RegisterWorker registers a worker node under a fresh ID. Names are
// display metadata; re-registering (e.g. after losing the ID to a
// coordinator restart... which forgets all registrations) just creates
// a new record.
func (s *Server) RegisterWorker(name string) (WorkerInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return WorkerInfo{}, ErrClosed
	}
	s.nextWkr++
	now := time.Now().UnixMilli()
	info := WorkerInfo{
		ID:           fmt.Sprintf("w%03d", s.nextWkr),
		Name:         name,
		RegisteredMs: now,
		LastSeenMs:   now,
	}
	s.workers[info.ID] = &workerNode{info: info}
	return info, nil
}

// Workers lists every registered worker node in registration order.
func (s *Server) Workers() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workers))
	for i := 1; i <= s.nextWkr; i++ {
		if w, ok := s.workers[fmt.Sprintf("w%03d", i)]; ok {
			out = append(out, w.info)
		}
	}
	return out
}

// LeaseWork grants one work unit to the worker: the oldest runnable
// queued job, or — when the queue is empty and stealing is enabled — a
// duplicate of the oldest straggling campaign-batch attempt (one whose
// lease was last renewed at least Options.StealAge ago, suggesting its
// holder is slow or silently dead). A steal mints a fresh attempt
// token, so whichever execution finishes second is fenced off and
// byte-compared against the store instead of applied. Returns (nil,
// nil) when there is nothing to lease.
func (s *Server) LeaseWork(workerID string) (*LeaseGrant, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	w, ok := s.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorker, workerID)
	}
	w.info.LastSeenMs = now.UnixMilli()

	if g, _ := s.popGrantLocked(workerID, now, nil); g != nil {
		w.info.Leased++
		return g, nil
	}

	// Tail work-stealing: duplicate a straggling batch child. Only here,
	// never on an in-process node's wake: the scan walks the registry.
	if s.opts.StealAge < 0 {
		return nil, nil
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.child {
			continue
		}
		j.mu.Lock()
		victim := j.status.Worker
		stale := j.status.State == StateRunning &&
			victim != workerID &&
			!now.Before(j.lease.Add(s.opts.StealAge-s.opts.Lease))
		j.mu.Unlock()
		if !stale {
			continue
		}
		if g := s.grantLocked(workerID, j, now, true, nil); g != nil {
			s.met.steals.Inc()
			s.log.Info("work_steal", "job", id, "worker", workerID, "victim", victim)
			w.info.Leased++
			return g, nil
		}
	}
	return nil, nil
}

// popGrantLocked grants the oldest runnable queued job to worker wkr,
// skipping entries canceled (or completed by a late attempt) while
// queued. Returns nil when nothing is runnable. Caller holds s.mu.
func (s *Server) popGrantLocked(wkr string, now time.Time, cancel context.CancelFunc) (*LeaseGrant, *job) {
	for len(s.pending) > 0 {
		j := s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending[len(s.pending)-1] = nil
		s.pending = s.pending[:len(s.pending)-1]
		if g := s.grantLocked(wkr, j, now, false, cancel); g != nil {
			return g, j
		}
	}
	return nil, nil
}

// grantLocked starts the next attempt of j on worker wkr — a queued
// job, or for a steal a running one — mints its attempt token, arms
// the lease and records it, and returns the grant (nil when j is not in
// the expected state). cancel is the attempt's cancel func: an
// in-process node's context, nil for a remote node, whose reclamation
// is the lease expiring. A steal keeps the previous holder's, and ends
// the superseded attempt's span — the one state change outside
// transition, because the job stays running. Caller holds s.mu.
func (s *Server) grantLocked(wkr string, j *job, now time.Time, steal bool, cancel context.CancelFunc) *LeaseGrant {
	want := StateQueued
	if steal {
		want = StateRunning
	}
	j.mu.Lock()
	if j.status.State != want {
		j.mu.Unlock()
		return nil
	}
	prev, prevStart := j.status, j.attemptStart
	j.status.State = StateRunning
	j.status.Attempt++
	j.status.Progress = Progress{}
	j.status.Worker = wkr
	if !steal {
		j.cancel = cancel
	}
	j.lease = now.Add(s.opts.Lease)
	j.attemptStart = now
	st := j.status
	j.broadcastLocked()
	j.mu.Unlock()

	if steal {
		s.endAttemptSpan(prev, prevStart, "stolen")
	}
	s.nextLease++
	l := &leaseRecord{id: fmt.Sprintf("l%06d", s.nextLease), j: j, att: st.Attempt, wkr: wkr, granted: now}
	s.leases[l.id] = l
	s.met.attempts.Inc()
	s.met.leaseGrants.Inc()
	s.startAttemptSpan(st)
	s.startLeaseSpan(l, st)
	spec := j.res.spec
	if spec.TimeoutMs == 0 && s.opts.JobTimeout > 0 {
		spec.TimeoutMs = (s.opts.JobTimeout + time.Millisecond - 1).Milliseconds()
	}
	return &LeaseGrant{
		LeaseID: l.id,
		JobID:   st.ID,
		Key:     j.res.key,
		Spec:    spec,
		Attempt: l.att,
		LeaseMs: s.opts.Lease.Milliseconds(),
		Stolen:  steal,
		TraceID: st.TraceID,
	}
}

// localNode is one of the Options.Workers in-process nodes. It speaks
// the lease protocol without HTTP: it takes work through
// popGrantLocked, as LeaseWork does, runs each unit through the
// UnitRunner remote nodes use, and hands the report to UpdateLease. Its
// attempts are attributed to WorkerLocal and it is not registered under
// /v1/workers. Unlike a remote node it blocks on s.cond while idle
// instead of polling, renews its lease through touch on every progress
// event instead of heartbeating, and its attempt's cancel func
// (Cancel, lease expiry) stops the unit promptly.
func (s *Server) localNode() {
	defer s.wg.Done()
	runner := UnitRunner{
		Cache: s.opts.Cache, MCWorkers: s.opts.MCWorkers, Metrics: s.met.reg, Store: s.store,
		Before: func(ctx context.Context, g *LeaseGrant) error {
			s.opts.Hooks.beforeExec(ctx, g.JobID, g.Attempt)
			return nil
		},
	}
	for {
		ctx, cancel := context.WithCancel(context.Background())
		g, j := s.leaseLocal(cancel)
		if g == nil {
			cancel()
			return
		}
		u := runner.run(ctx, g, j.res, func(p Progress) { s.touch(j, g.Attempt, p) })
		cancel()
		s.UpdateLease(g.LeaseID, u)
	}
}

// leaseLocal blocks until a queued job is granted to an in-process node
// with cancel as its attempt's cancel func, or returns nil once the
// server is closing.
func (s *Server) leaseLocal(cancel context.CancelFunc) (*LeaseGrant, *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if g, j := s.popGrantLocked(WorkerLocal, time.Now(), cancel); g != nil {
			return g, j
		}
		s.cond.Wait()
	}
	return nil, nil
}

// UpdateLease applies a node's report on a leased unit — the one
// completion path for in-process and remote attempts alike. An unknown
// lease ID is not an error — the coordinator may have garbage-collected
// it, or restarted — the worker just learns Valid=false and moves on.
// A terminal report retires the lease record: store-then-transition on
// success, timeout or retry-or-fail on failure, and the integrity
// cross-check for reports whose attempt token was superseded (a stolen
// unit's straggler, an expired lease's zombie). A mismatch there names
// the reporting worker in the integrity_error, so a nondeterministic
// (or corrupting) node is identifiable fleet-wide.
func (s *Server) UpdateLease(leaseID string, u LeaseUpdate) (LeaseAck, error) {
	now := time.Now()
	s.mu.Lock()
	l, ok := s.leases[leaseID]
	if ok {
		if w := s.workers[l.wkr]; w != nil {
			w.info.LastSeenMs = now.UnixMilli()
		}
		if u.Event == "complete" || u.Event == "fail" {
			delete(s.leases, leaseID)
		}
	}
	s.mu.Unlock()
	if !ok {
		return LeaseAck{}, nil
	}

	j := l.j
	switch u.Event {
	case "heartbeat":
		p := Progress{}
		if u.Progress != nil {
			p = *u.Progress
		}
		s.touch(j, l.att, p)
		st := j.snapshot()
		return LeaseAck{Valid: st.State == StateRunning && st.Attempt == l.att}, nil

	case "complete":
		j.mu.Lock()
		owns := j.status.Attempt == l.att && !j.status.Terminal()
		j.mu.Unlock()
		if !owns {
			s.endLeaseSpan(l, "superseded")
			if u.Result != nil {
				s.integrityCheck(j, u.Result, l.wkr)
			}
			return LeaseAck{}, nil
		}
		// The worker's credit waits for the store write: a report whose
		// bytes conflict with the stored result is an integrity failure
		// implicating the node, not a completion.
		perr := s.store.Put(j.res.key, u.Result)
		switch {
		case perr == nil:
			s.countOutcome(l.wkr, true)
			s.endLeaseSpan(l, "complete")
			s.transition(j, func(j *job) bool {
				return j.status.Attempt == l.att && !j.status.Terminal()
			}, "done", func(st *JobStatus) { st.State = StateDone })
		case errors.Is(perr, ErrStoreMismatch):
			s.countOutcome(l.wkr, false)
			s.endLeaseSpan(l, "integrity_error")
			s.integrityFail(j, fmt.Errorf("worker %s: %w", l.wkr, perr))
		default:
			// A store-side write error is not the worker's doing; the
			// report still counts as a completion on its record.
			s.countOutcome(l.wkr, true)
			s.endLeaseSpan(l, "store_error")
			s.retryOrFail(j, l.att, "error", perr, now)
		}
		return LeaseAck{Valid: true}, nil

	case "fail":
		j.mu.Lock()
		owns := j.status.Attempt == l.att && j.status.State == StateRunning
		j.mu.Unlock()
		if !owns {
			// Superseded: a canceled or expired attempt's error adds
			// nothing to the job that replaced it.
			s.endLeaseSpan(l, "superseded")
			return LeaseAck{}, nil
		}
		s.countOutcome(l.wkr, false)
		s.endLeaseSpan(l, "fail")
		msg := u.Error
		if msg == "" {
			msg = "worker reported failure without a message"
		}
		switch u.Reason {
		case "timeout":
			// Terminal, not retried: the execution is deterministic, so a
			// rerun would time out again.
			s.transition(j, attemptRunning(l.att), "timeout", func(st *JobStatus) {
				st.State = StateFailed
				st.Error = fmt.Sprintf("attempt %d exceeded its execution timeout", st.Attempt)
				st.StopReason = StopReasonTimeout
			})
		case "panic":
			s.retryOrFail(j, l.att, "panic", errors.New(msg), now)
		default:
			s.retryOrFail(j, l.att, "error", errors.New(msg), now)
		}
		return LeaseAck{Valid: true}, nil
	}
	return LeaseAck{}, fmt.Errorf("service: unknown lease event %q", u.Event)
}

// countOutcome tallies a completion or failure on the worker's record.
func (s *Server) countOutcome(workerID string, completed bool) {
	s.mu.Lock()
	if w, ok := s.workers[workerID]; ok {
		if completed {
			w.info.Completed++
		} else {
			w.info.Failed++
		}
	}
	s.mu.Unlock()
}
