package service

import (
	"errors"
	"fmt"
	"time"
)

// campaign is the scheduler-side record tying a campaign parent job to
// its batch children (in canonical grid order — the order their results
// concatenate into the aggregate). Immutable after creation.
type campaign struct {
	parent   *job
	children []*job
}

// CampaignStatus is the API view of a campaign: the parent's JobStatus
// plus each batch child's, in aggregate order.
type CampaignStatus struct {
	JobStatus
	// Batches are the campaign's work units in canonical order; their
	// results concatenate (in this order) into the parent's aggregate.
	Batches []JobStatus `json:"batches,omitempty"`
}

// Campaign returns a campaign's status with its per-batch breakdown.
// The ID must be a campaign parent's job ID.
func (s *Server) Campaign(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return CampaignStatus{}, false
	}
	return c.status(), true
}

// Campaigns lists every campaign's status in submission order.
func (s *Server) Campaigns() []CampaignStatus {
	s.mu.Lock()
	ids := make([]string, 0, len(s.campaigns))
	for _, id := range s.order {
		if _, ok := s.campaigns[id]; ok {
			ids = append(ids, id)
		}
	}
	cs := make([]*campaign, len(ids))
	for i, id := range ids {
		cs[i] = s.campaigns[id]
	}
	s.mu.Unlock()
	out := make([]CampaignStatus, len(cs))
	for i, c := range cs {
		out[i] = c.status()
	}
	return out
}

func (c *campaign) status() CampaignStatus {
	st := CampaignStatus{JobStatus: c.parent.snapshot()}
	for _, ch := range c.children {
		st.Batches = append(st.Batches, ch.snapshot())
	}
	return st
}

// submitCampaignLocked schedules a resolved campaign: the grid's units
// are cut into batches of r.batch points, each batch becomes a child
// job, and the returned status is the parent's — born running, its
// progress counting grid points, terminal only when every batch is.
// Children deduplicate exactly like submissions: a batch whose result
// is already stored is registered done (nothing recomputed), a batch
// identical to a live job joins it, and only fresh batches enter the
// queue, exempt from the QueueDepth bound: the campaign is one
// admission decision. Every child inherits the campaign's trace ID
// (except a coalesced live job, which keeps the trace it was born
// with). Caller holds s.mu.
func (s *Server) submitCampaignLocked(r *resolvedJob, traceID string) (JobStatus, error) {
	// Cut the canonical-order units into batch resolvedJobs.
	var batches []*resolvedJob
	for lo := 0; lo < len(r.units); lo += r.batch {
		hi := lo + r.batch
		if hi > len(r.units) {
			hi = len(r.units)
		}
		batches = append(batches, compositeResolved("batch", r.units[lo:hi]))
	}

	// Classify before creating anything, so a store read error leaves
	// no campaign half-registered.
	type childPlan struct {
		res  *resolvedJob
		live *job // non-nil: adopt this in-flight job
		hit  bool // stored already: register a done child
	}
	plans := make([]childPlan, len(batches))
	for i, br := range batches {
		plans[i].res = br
		if live, ok := s.inflight[br.key]; ok {
			plans[i].live = live
			continue
		}
		if _, ok, err := s.store.Get(br.key); err != nil {
			return JobStatus{}, err
		} else if ok {
			plans[i].hit = true
		}
	}

	now := time.Now().UnixMilli()
	parent := s.addJobLocked(r, StateRunning, false)
	parent.status.TraceID = traceID
	parent.status.Progress = Progress{Total: len(r.units), Unit: "points"}
	s.inflight[r.key] = parent
	s.met.submitted.Inc()
	s.met.campaigns.Inc()
	s.startJobSpan(parent)

	children := make([]*job, len(plans))
	for i, p := range plans {
		switch {
		case p.live != nil:
			children[i] = p.live
		case p.hit:
			cj := s.addJobLocked(p.res, StateDone, true)
			cj.child = true
			cj.status.TraceID = traceID
			cj.status.DoneMs = now
			s.met.storeHits.Inc()
			s.startJobSpan(cj)
			children[i] = cj
		default:
			cj := s.addJobLocked(p.res, StateQueued, false)
			cj.child = true
			cj.status.TraceID = traceID
			s.pending = append(s.pending, cj)
			s.inflight[p.res.key] = cj
			s.startJobSpan(cj)
			s.cond.Signal()
			children[i] = cj
		}
		s.childRefs[children[i]]++
	}

	c := &campaign{parent: parent, children: children}
	s.campaigns[parent.snapshot().ID] = c
	s.cwg.Add(1)
	go s.runCampaign(c)
	return parent.snapshot(), nil
}

// runCampaign is the campaign's monitor goroutine: it folds the
// children's states into the parent until the campaign resolves —
// every batch done (aggregate assembled and stored), any batch
// terminally not-done (campaign failed), or the parent itself forced
// terminal from outside (canceled, or failed by Close), in which case
// the children are released. Exactly one resolution path runs; all of
// them release the children's campaign references on the way out.
func (s *Server) runCampaign(c *campaign) {
	defer s.cwg.Done()
	for {
		// Snapshot the world: parent first (its channel before its state
		// elsewhere would race), then the children fold.
		c.parent.mu.Lock()
		parentCh := c.parent.changed
		parentGone := c.parent.status.Terminal()
		c.parent.mu.Unlock()
		if parentGone {
			s.releaseChildren(c)
			return
		}

		pointsDone := 0
		var waitChild *job
		var waitCh chan struct{}
		var blocker JobStatus
		allDone := true
		for _, ch := range c.children {
			ch.mu.Lock()
			st := ch.status
			chCh := ch.changed
			ch.mu.Unlock()
			switch st.State {
			case StateDone:
				pointsDone += len(ch.res.units)
				continue
			case StateFailed, StateCanceled, StateIntegrityError:
				blocker = st
			default:
				if st.State == StateRunning && st.Progress.Unit == "points" {
					pointsDone += st.Progress.Done
				}
			}
			allDone = false
			if blocker.State == "" && waitChild == nil {
				waitChild, waitCh = ch, chCh
			}
			if blocker.State != "" {
				break
			}
		}

		if blocker.State != "" {
			s.failCampaign(c, blocker)
			return
		}
		if allDone {
			s.completeCampaign(c)
			return
		}

		// Publish progress (monotone — a requeue resets a child's count).
		c.parent.mu.Lock()
		if !c.parent.status.Terminal() && pointsDone > c.parent.status.Progress.Done {
			c.parent.status.Progress.Done = pointsDone
			c.parent.broadcastLocked()
		}
		c.parent.mu.Unlock()

		select {
		case <-parentCh:
		case <-waitCh:
		}
	}
}

// completeCampaign assembles the aggregate — each batch's stored bytes
// concatenated in canonical order, byte-identical to what `latticesim
// sweep -json` emits for the same grid — stores it under the campaign
// key, and marks the parent done.
func (s *Server) completeCampaign(c *campaign) {
	var agg []byte
	for i, ch := range c.children {
		data, ok, err := s.store.Get(ch.res.key)
		if err == nil && !ok {
			err = fmt.Errorf("batch %d result %s missing from store", i, ch.res.key[:8])
		}
		if err != nil {
			s.failParent(c, fmt.Sprintf("aggregate: %v", err), "")
			s.releaseChildren(c)
			return
		}
		agg = append(agg, data...)
	}
	perr := s.store.Put(c.parent.res.key, agg)
	switch {
	case perr == nil:
		s.transition(c.parent, live, "done", func(st *JobStatus) {
			st.State = StateDone
			st.Progress.Done = st.Progress.Total
		})
	case errors.Is(perr, ErrStoreMismatch):
		s.integrityFail(c.parent, perr)
	default:
		s.failParent(c, fmt.Sprintf("aggregate: %v", perr), "")
	}
	s.releaseChildren(c)
}

// failCampaign resolves a campaign whose batch terminally failed: the
// parent inherits the blocker's classification (an integrity_error
// poisons the campaign as integrity_error — its aggregate can no longer
// be vouched for) and surviving children are released.
func (s *Server) failCampaign(c *campaign, blocker JobStatus) {
	if blocker.State == StateIntegrityError {
		s.integrityFail(c.parent, fmt.Errorf("batch %s: %s", blocker.ID, blocker.Error))
		s.releaseChildren(c)
		return
	}
	reason := blocker.StopReason
	msg := blocker.Error
	if msg == "" {
		msg = "batch " + blocker.ID + " " + blocker.State
	} else {
		msg = "batch " + blocker.ID + ": " + msg
	}
	s.failParent(c, msg, reason)
	s.releaseChildren(c)
}

// failParent fails the parent (no-op if it is already terminal).
func (s *Server) failParent(c *campaign, msg, reason string) {
	s.transition(c.parent, live, "failed", func(st *JobStatus) {
		st.State = StateFailed
		st.Error = msg
		st.StopReason = reason
	})
}

// releaseChildren drops the campaign's references on its children and
// cancels any still-live child no other campaign references — but only
// children born of a campaign (j.child): a standalone job the campaign
// merely coalesced with belongs to its own submitter and keeps running.
// The campaign record itself stays registered (GET /v1/campaigns/{id}
// keeps resolving) until the parent job is evicted from the registry.
func (s *Server) releaseChildren(c *campaign) {
	s.mu.Lock()
	var orphans []*job
	for _, ch := range c.children {
		if n := s.childRefs[ch] - 1; n > 0 {
			s.childRefs[ch] = n
			continue
		}
		delete(s.childRefs, ch)
		if ch.child {
			orphans = append(orphans, ch)
		}
	}
	s.mu.Unlock()
	for _, ch := range orphans {
		if !ch.snapshot().Terminal() {
			s.cancelJob(ch)
		}
	}
}
