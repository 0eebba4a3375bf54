package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"latticesim/internal/obs"
)

// Handler returns the HTTP API (see API.md for the full contract).
// Resources are nouns; every non-2xx response carries the JSON error
// envelope {"error": {"code", "message", "retry_after_ms"}}.
//
// Jobs and results:
//
//	POST /v1/jobs            submit a JobSpec; 200 JobStatus, 400 bad
//	                         spec, 503 queue full or shutting down
//	                         (both retryable)
//	GET  /v1/jobs            list all jobs in submission order
//	GET  /v1/jobs/{id}       one job's status; with ?watch=1, an NDJSON
//	                         stream of snapshots ending at the terminal
//	                         state
//	DELETE /v1/jobs/{id}     cancel a queued or running job (idempotent
//	                         on terminal jobs)
//	GET  /v1/results/{key}   the stored result blob (application/json);
//	                         results enter the store only through a
//	                         fenced "complete" lease report
//
// Campaigns (sweep grids scheduled as leased batches):
//
//	POST /v1/campaigns       submit a CampaignJob; 200 JobStatus of the
//	                         campaign parent
//	GET  /v1/campaigns       list campaign statuses with per-batch detail
//	GET  /v1/campaigns/{id}  one campaign's status with per-batch detail
//
// Worker fleet (pull-based work distribution):
//
//	POST /v1/workers             register a node ({"name": ...}); 200
//	                             WorkerInfo with the assigned ID
//	GET  /v1/workers             list registered nodes
//	POST /v1/workers/{id}/lease  request one work unit; 200 LeaseGrant,
//	                             204 nothing to lease, 404 unknown worker
//	                             (re-register)
//	POST /v1/leases/{id}         report on a leased unit (heartbeat /
//	                             complete / fail); 200 LeaseAck
//
// Operations:
//
//	GET  /v1/stats           server counters (queue, fleet, store, cache)
//	GET  /metrics            Prometheus text exposition of the same
//	                         registry /v1/stats is derived from
//	GET  /healthz            liveness probe
//
// The X-Latticesim-Trace header carries trace IDs: inbound on
// submissions (joining the caller's trace), outbound on submission
// responses and lease grants (propagating the job's trace to workers).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	mux.HandleFunc("GET /v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaign)
	mux.HandleFunc("POST /v1/workers", s.handleRegisterWorker)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.HandleFunc("POST /v1/workers/{id}/lease", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}", s.handleLeaseUpdate)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// maxSpecBytes bounds submission bodies; trace texts are small (a few
// KB for hundreds of ops), so 4 MiB is generous without inviting abuse.
const maxSpecBytes = 4 << 20

// maxResultBytes bounds lease-report bodies, which carry a completed
// unit's result. A batch result is one record line (~1 KB) per point
// and batches are ≤ 4096 points, so 64 MiB clears every legitimate
// report with a wide margin.
const maxResultBytes = 64 << 20

// decodeBody strictly decodes a bounded JSON request body into v,
// writing the bad_request envelope (and returning false) on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, 0, "decoding request body: %v", err)
		return false
	}
	return true
}

// writeSubmitError maps Submit errors onto the envelope.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.As(err, new(*SpecError)):
		writeError(w, http.StatusBadRequest, CodeBadRequest, 0, "invalid job: %v", err)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull, time.Second, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, 0, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, 0, "%v", err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, maxSpecBytes, &spec) {
		return
	}
	st, err := s.SubmitTraced(spec, r.Header.Get(obs.TraceHeader))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set(obs.TraceHeader, st.TraceID)
	writeJSON(w, http.StatusOK, st)
}

// handleSubmitCampaign is the noun-resource form of campaign
// submission: the body is the CampaignJob itself (no JobSpec wrapper).
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var cj CampaignJob
	if !decodeBody(w, r, maxSpecBytes, &cj) {
		return
	}
	st, err := s.SubmitTraced(JobSpec{Type: "campaign", Campaign: &cj}, r.Header.Get(obs.TraceHeader))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set(obs.TraceHeader, st.TraceID)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Campaigns())
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Campaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, 0, "unknown campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// registerWorkerRequest is the body of POST /v1/workers.
type registerWorkerRequest struct {
	Name string `json:"name,omitempty"`
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req registerWorkerRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	info, err := s.RegisterWorker(req.Name)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, 0, "%v", err)
		} else {
			writeError(w, http.StatusInternalServerError, CodeInternal, 0, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Workers())
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	grant, err := s.LeaseWork(id)
	switch {
	case err == nil && grant == nil:
		w.WriteHeader(http.StatusNoContent)
	case err == nil:
		w.Header().Set(obs.TraceHeader, grant.TraceID)
		writeJSON(w, http.StatusOK, grant)
	case errors.Is(err, ErrUnknownWorker):
		writeError(w, http.StatusNotFound, CodeNotFound, 0, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, 0, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, 0, "%v", err)
	}
}

func (s *Server) handleLeaseUpdate(w http.ResponseWriter, r *http.Request) {
	var u LeaseUpdate
	if !decodeBody(w, r, maxResultBytes, &u) {
		return
	}
	switch u.Event {
	case "heartbeat", "complete", "fail":
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, 0, "unknown lease event %q", u.Event)
		return
	}
	ack, err := s.UpdateLease(r.PathValue("id"), u)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("watch") == "" {
		st, ok := s.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, 0, "unknown job %q", id)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}

	// Streaming mode: one JSON status snapshot per line, flushed as it
	// happens, ending with the terminal snapshot. Clients follow a job
	// with a single long-poll-free request.
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	first := true
	_, ok, err := s.Watch(r.Context(), id, func(st JobStatus) error {
		// Intermediate progress snapshots drop the (constant, possibly
		// large) spec echo; the first and terminal lines carry it.
		if !first && !st.Terminal() {
			st.Spec = nil
		}
		first = false
		if err := enc.Encode(st); err != nil {
			return err
		}
		if canFlush {
			flusher.Flush()
		}
		return nil
	})
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, 0, "unknown job %q", id)
		return
	}
	// err is a dead client or a cancelled request — nothing useful can
	// be written to them anymore.
	_ = err
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, 0, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, 0, "invalid result key %q", key)
		return
	}
	data, ok, err := s.store.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, 0, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, 0, "no result stored under %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
