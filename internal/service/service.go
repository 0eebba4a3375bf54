// Package service is the always-on serving layer over the batch
// simulator: an embeddable job-queue server (exposed as `latticesim
// serve`) with a small HTTP/JSON API, a bounded queue drained by
// in-process and remote nodes through one lease protocol, and a
// content-addressed result store.
//
// Two job kinds exist, mirroring the two batch entry points. A sweep job
// executes one campaign point (internal/sweep) and yields the point's
// canonical Record JSON; a trace job simulates one lattice-surgery
// program under a set of policies (internal/trace) and yields a
// trace.ResultSet JSON document. Jobs are submitted with POST /v1/jobs,
// observed with GET /v1/jobs/{id} (optionally as a streaming NDJSON
// progress feed with ?watch=1), and their results fetched with
// GET /v1/results/{key}.
//
// The determinism contract of the batch layer carries over unchanged to
// the service boundary: a job's result is a pure function of its
// resolved spec — independent of worker counts, queue order, and of
// which other jobs share the server — so every result is stored under a
// content address derived from the spec alone (the canonical Point.Key /
// trace text plus the campaign seed and shot budget, hashed with
// SHA-256). A re-submitted job is recognized before it is queued and
// served from the store bit-identically and near-instantly, with its
// status marked as a cache hit; identical jobs that are still in flight
// coalesce onto the live job instead of queueing twice. All executed
// jobs share one process-wide sweep.BuildCache, so even distinct jobs
// reuse each other's circuit/DEM/decoder-graph builds.
//
// See DESIGN.md §11 for the architecture and EXPERIMENTS.md §11 for
// replaying figure sweeps through the server.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// resultSchemaVersion is baked into every content address, so a breaking
// change to a stored result schema (sweep.Record, trace.ResultSet)
// must bump it — old store entries then simply miss instead of serving
// stale-schema bytes. v2: sweep.Record gained the shots_granted,
// stop_reason and estimator columns (adaptive allocation).
const resultSchemaVersion = 2

// Job states. Queued and running are transient; the rest are terminal.
// A job may bounce between running and queued several times (crash-safe
// requeue, DESIGN.md §14) before settling in a terminal state.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateCanceled marks a job stopped by DELETE /v1/jobs/{id} (or
	// Server.Cancel) before it produced a result.
	StateCanceled = "canceled"
	// StateIntegrityError marks a job whose duplicate executions produced
	// byte-different results — a determinism violation the service
	// surfaces loudly instead of silently serving either copy.
	StateIntegrityError = "integrity_error"
)

// Stop reasons, carried in JobStatus.StopReason on early-terminal jobs.
const (
	StopReasonCanceled    = "canceled"
	StopReasonTimeout     = "timeout"
	StopReasonMaxAttempts = "max_attempts"
	StopReasonIntegrity   = "integrity_error"
	StopReasonShutdown    = "shutdown"
)

// JobSpec is the submission body of POST /v1/jobs: exactly one of
// Sweep, Trace, Batch or Campaign must be set, matching Type.
type JobSpec struct {
	// Type selects the job kind: "sweep", "trace", "batch" or
	// "campaign".
	Type string `json:"type"`
	// Sweep configures a single sweep-point job (Type "sweep").
	Sweep *SweepJob `json:"sweep,omitempty"`
	// Trace configures a trace-simulation job (Type "trace").
	Trace *TraceJob `json:"trace,omitempty"`
	// Batch configures a multi-point work unit (Type "batch") — the
	// leased unit of a campaign, also submittable directly.
	Batch *BatchJob `json:"batch,omitempty"`
	// Campaign configures a whole sweep-grid campaign (Type "campaign"),
	// scheduled by the coordinator as batch children. POST /v1/campaigns
	// accepts the CampaignJob directly.
	Campaign *CampaignJob `json:"campaign,omitempty"`
	// TimeoutMs, when > 0, bounds each execution attempt's wall time;
	// exceeding it ends the job with state "failed" and stop reason
	// "timeout". It overrides the server's default job timeout. Like
	// worker counts it is an execution parameter, not physics, so it is
	// excluded from the result's content address.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SweepJob is one campaign point: the same coordinates a `latticesim
// sweep` grid cell has, with the same defaults. Its result is the
// point's canonical sweep.Record JSON (wall_ms zeroed), byte-identical
// to what `latticesim sweep -json` emits for the same coordinates.
type SweepJob struct {
	// Hardware is the profile name (IBM, Google, QuEra, IBM-Sherbrooke;
	// "" = IBM).
	Hardware string `json:"hardware,omitempty"`
	// ScaleNs, when > 0, scales the profile so its cycle equals this
	// many ns (the paper's §7.3 grids use 1000).
	ScaleNs float64 `json:"scale_ns,omitempty"`
	// Policy is the synchronization policy name (required).
	Policy string `json:"policy"`
	// D is the code distance, odd and ≥ 3 (0 = 3).
	D int `json:"d,omitempty"`
	// TauNs is the synchronization slack τ in ns (0 = 1000).
	TauNs float64 `json:"tau_ns,omitempty"`
	// P is the physical error rate (0 = 1e-3).
	P float64 `json:"p,omitempty"`
	// Basis is the merge basis: X/XX or Z/ZZ ("" = X).
	Basis string `json:"basis,omitempty"`
	// CyclePNs and CyclePPrimeNs are the patch cycle times in ns
	// (0 = the hardware base cycle).
	CyclePNs      float64 `json:"cycle_p_ns,omitempty"`
	CyclePPrimeNs float64 `json:"cycle_pprime_ns,omitempty"`
	// EpsNs is the Hybrid residual-slack tolerance in ns.
	EpsNs int64 `json:"eps_ns,omitempty"`
	// Shots is the Monte Carlo budget (0 = 40000). Seed is the campaign
	// seed the point seed derives from (0 = 0xC0FFEE). Both are part of
	// the result's content address. Seed is a JSON number; values above
	// 2^53 should be avoided in hand-written specs (double-precision
	// tooling rounds them).
	Shots int    `json:"shots,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// Adaptive switches the point to adaptive shot allocation: Shots
	// becomes the budget pool and the run stops once the joint-rate
	// confidence interval is narrow enough (EXPERIMENTS.md §12).
	// TargetRCI is the relative CI width to converge to (0 = 0.2) and
	// MaxShots the per-point cap (0 = 1048576); setting either implies
	// Adaptive. All three feed the content address.
	Adaptive  bool    `json:"adaptive,omitempty"`
	TargetRCI float64 `json:"target_rci,omitempty"`
	MaxShots  int     `json:"max_shots,omitempty"`
}

// TraceJob is one whole-program simulation: a trace (inline text or a
// generated workload family) run under one or more policies at one
// (d, p) coordinate. Its result is a trace.ResultSet JSON document,
// schema-identical to a `latticesim trace -json` grid-cell line.
type TraceJob struct {
	// TraceText is the program in trace text format (EXPERIMENTS.md
	// §10). When empty, a workload is generated instead.
	TraceText string `json:"trace_text,omitempty"`
	// Workload is the generated family when TraceText is empty:
	// factory, random or ensemble ("" = factory).
	Workload string `json:"workload,omitempty"`
	// Patches and Merges shape generated workloads (0 = 8 patches,
	// 16 merges), with the same semantics as `latticesim trace`.
	Patches int `json:"patches,omitempty"`
	Merges  int `json:"merges,omitempty"`
	// Policies are the synchronization policies to compare (required,
	// at least one).
	Policies []string `json:"policies"`
	// Hardware is the profile name ("" = IBM). ScaleNs scales it so the
	// base cycle equals this many ns; 0 selects the CLI default of 1000
	// (the paper's §7.3 T_P), negative values keep the native cycle.
	Hardware string  `json:"hardware,omitempty"`
	ScaleNs  float64 `json:"scale_ns,omitempty"`
	// D, P and Basis are the merge coordinates (0/"" = 3, 1e-3, X).
	D     int     `json:"d,omitempty"`
	P     float64 `json:"p,omitempty"`
	Basis string  `json:"basis,omitempty"`
	// EpsNs, MaxZ and StaggerNs follow trace.Config semantics
	// (0 = 400ns, 5, 135ns; negative StaggerNs = none).
	EpsNs     int64 `json:"eps_ns,omitempty"`
	MaxZ      int   `json:"max_z,omitempty"`
	StaggerNs int64 `json:"stagger_ns,omitempty"`
	// Shots per merge pair (0 = 4096) and the campaign seed (0 =
	// 0xC0FFEE); both are part of the result's content address.
	Shots int    `json:"shots,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// BatchJob is a set of sweep points executed as one work unit (Type
// "batch"): the leased quantum of a campaign, sized so a worker node
// amortizes its build cache across neighboring grid points. Its result
// is the concatenation of each point's canonical sweep.Record JSON
// line (newline-terminated JSONL), in the listed order.
type BatchJob struct {
	// Points are the sweep points, each with full SweepJob semantics
	// (at least one, at most maxBatchPoints).
	Points []SweepJob `json:"points"`
}

// maxBatchPoints bounds one batch; campaigns are bounded separately by
// maxCampaignPoints.
const maxBatchPoints = 4096

// CampaignJob is a whole sweep campaign (Type "campaign"): the same
// string-typed grid axes `latticesim sweep` takes, expanded by the
// coordinator into canonical-order point batches that workers execute
// as leased units. Its result is the concatenation of every point's
// canonical record line in canonical grid order — byte-identical to
// `latticesim sweep -json` for the same grid, shots and seed,
// independent of batch size, worker count, node loss and retries.
type CampaignJob struct {
	// Hardware is the profile name ("" = IBM); ScaleNs > 0 scales it so
	// the base cycle equals this many ns.
	Hardware string  `json:"hardware,omitempty"`
	ScaleNs  float64 `json:"scale_ns,omitempty"`
	// Grid axes, comma-separated lists with `latticesim sweep` semantics
	// and defaults (empty = axis default).
	Policies      string  `json:"policies,omitempty"`
	Distances     string  `json:"distances,omitempty"`
	TausNs        string  `json:"taus_ns,omitempty"`
	ErrorRates    string  `json:"error_rates,omitempty"`
	Bases         string  `json:"bases,omitempty"`
	CyclePNs      float64 `json:"cycle_p_ns,omitempty"`
	CyclePPrimeNs string  `json:"cycle_pprime_ns,omitempty"`
	EpsNs         int64   `json:"eps_ns,omitempty"`
	// Shots per point (0 = 40000) and the campaign seed (0 = 0xC0FFEE);
	// both feed every point's content address.
	Shots int    `json:"shots,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	// BatchPoints is the number of grid points per leased work unit
	// (0 = 16). Like worker counts it is an execution parameter, not
	// physics: the campaign's content address and aggregate bytes are
	// independent of it.
	BatchPoints int `json:"batch_points,omitempty"`
}

// DefaultBatchPoints is the campaign batch size when BatchPoints is 0.
const DefaultBatchPoints = 16

// maxCampaignPoints bounds campaign expansion (the grid grammar already
// enforces its own ceiling; this keeps the per-campaign child count and
// aggregate size sane for a serving process).
const maxCampaignPoints = 1 << 16

// Progress reports a job's completion fraction in its native unit:
// "shots" for sweep jobs, "merges" (summed across policies) for trace
// jobs, "points" for batch and campaign jobs.
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Unit  string `json:"unit,omitempty"`
}

// JobStatus is the API's view of one job, returned by submission,
// GET /v1/jobs/{id}, and (as an NDJSON stream of snapshots) ?watch=1.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CacheHit reports that the submission was answered from the
	// content-addressed store without queueing any work.
	CacheHit bool `json:"cache_hit"`
	// Key is the result's content address, known at submission time;
	// fetch the result bytes with GET /v1/results/{key} once State is
	// "done".
	Key      string   `json:"key"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	// Attempt is the 1-based execution attempt that is running (or that
	// produced the terminal state); 0 while the job has never been
	// dispatched. Progress resets at the start of every attempt.
	Attempt int `json:"attempt,omitempty"`
	// Worker names the holder of the current (or last) attempt: "local"
	// for the server's in-process nodes, the registered worker ID for a
	// remote node, empty while never dispatched.
	Worker string `json:"worker,omitempty"`
	// TraceID is the job's trace ID: 32 hex chars, minted at submission
	// (or adopted from the X-Latticesim-Trace request header). Every
	// span event the job's execution emits — attempts, leases, worker
	// units — carries it, fleet-wide.
	TraceID string `json:"trace_id,omitempty"`
	// Failures records every attempt that did not complete — panics,
	// execution errors, and expired leases — in order. A job retried to
	// success keeps its failure history, so clients can see the recovery.
	Failures []AttemptFailure `json:"failures,omitempty"`
	// StopReason distinguishes why an early-terminal job stopped:
	// "canceled", "timeout", "max_attempts", "integrity_error" or
	// "shutdown". Empty on jobs that ran to completion.
	StopReason string `json:"stop_reason,omitempty"`
	// Spec echoes the normalized submission. The resolved spec is
	// immutable and shared by every snapshot of a job; to keep ?watch=1
	// streams light (a trace spec embeds the whole program text), the
	// server omits it from intermediate progress snapshots — it is
	// always present on the submission response, plain GETs, and the
	// first and terminal lines of a watch stream.
	Spec *JobSpec `json:"spec,omitempty"`
	// Wall-clock bookkeeping (Unix milliseconds; 0 = not yet). Like
	// every timing field in the repo, these carry no determinism
	// guarantee.
	QueuedMs int64 `json:"queued_unix_ms,omitempty"`
	DoneMs   int64 `json:"done_unix_ms,omitempty"`
}

// AttemptFailure is one failed execution attempt in a job's history.
type AttemptFailure struct {
	// Attempt is the 1-based attempt number that failed.
	Attempt int `json:"attempt"`
	// Reason classifies the failure: "panic" (the worker panicked and
	// recovered), "error" (execution returned an error), or
	// "lease_expired" (the watchdog declared the worker dead after it
	// missed its heartbeat deadline).
	Reason string `json:"reason"`
	// Error is the underlying message, when there is one.
	Error string `json:"error,omitempty"`
	// Worker names the node whose attempt failed ("local" for the
	// server's in-process nodes), so fleet operators can spot a bad box.
	Worker string `json:"worker,omitempty"`
	// AtMs is when the failure was recorded (Unix milliseconds; carries
	// no determinism guarantee).
	AtMs int64 `json:"at_unix_ms,omitempty"`
}

// Terminal reports whether the state is final.
func (s JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateCanceled, StateIntegrityError:
		return true
	}
	return false
}

// resolvedJob is a validated, fully defaulted job: everything execution
// needs plus the canonical descriptor its content address hashes.
type resolvedJob struct {
	spec JobSpec // normalized echo

	// Sweep jobs.
	pt   sweep.Point
	scfg sweep.Config

	// Trace jobs.
	prog *trace.Program
	tcfg trace.Config
	pols []core.Policy

	// Batch and campaign jobs: the member points in canonical order,
	// each itself a resolved sweep unit. batch is the campaign's
	// points-per-child size (execution parameter, not physics).
	units []*resolvedJob
	batch int

	// canonical is canonicalHeader()+body; the content key hashes it.
	// body is kept separately so composite jobs (batch, campaign) can
	// splice member descriptors without nesting headers.
	canonical string
	body      string
	key       string
}

// canonicalHeader versions every canonical descriptor (and hence every
// content address).
func canonicalHeader() string {
	return fmt.Sprintf("latticesim-result-v%d\n", resultSchemaVersion)
}

// resolveHW maps a profile name + scale to a concrete hardware config.
// scale semantics are the job-spec ones: > 0 scales, else def applies
// (0 for sweep jobs, 1000 for trace jobs with negative = native).
func resolveHW(name string, scale, def float64) (hardware.Config, error) {
	if name == "" {
		name = "IBM"
	}
	hw, ok := hardware.ByName(name)
	if !ok {
		return hw, fmt.Errorf("unknown hardware profile %q (IBM, Google, QuEra, IBM-Sherbrooke)", name)
	}
	if scale == 0 {
		scale = def
	}
	if scale > 0 {
		hw = hw.Scaled(scale)
	}
	return hw, nil
}

// resolve validates the spec and computes its content address. It is
// the single normalization point: the server resolves every submission
// through it, and ContentKey exposes the address it derives so clients
// can predict a result key without contacting a server.
func (s JobSpec) resolve() (*resolvedJob, error) {
	if s.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms %d must be ≥ 0", s.TimeoutMs)
	}
	var r *resolvedJob
	var err error
	switch s.Type {
	case "sweep":
		if s.Sweep == nil || s.Trace != nil || s.Batch != nil || s.Campaign != nil {
			return nil, fmt.Errorf("type %q requires exactly the sweep field", s.Type)
		}
		r, err = resolveSweep(*s.Sweep)
	case "trace":
		if s.Trace == nil || s.Sweep != nil || s.Batch != nil || s.Campaign != nil {
			return nil, fmt.Errorf("type %q requires exactly the trace field", s.Type)
		}
		r, err = resolveTrace(*s.Trace)
	case "batch":
		if s.Batch == nil || s.Sweep != nil || s.Trace != nil || s.Campaign != nil {
			return nil, fmt.Errorf("type %q requires exactly the batch field", s.Type)
		}
		r, err = resolveBatch(*s.Batch)
	case "campaign":
		if s.Campaign == nil || s.Sweep != nil || s.Trace != nil || s.Batch != nil {
			return nil, fmt.Errorf("type %q requires exactly the campaign field", s.Type)
		}
		r, err = resolveCampaign(*s.Campaign)
	default:
		return nil, fmt.Errorf("unknown job type %q (sweep, trace, batch or campaign)", s.Type)
	}
	if err != nil {
		return nil, err
	}
	// The timeout rides along in the echo (so clients see what they set,
	// and lease grants carry it to nodes) but never reaches the canonical
	// descriptor or the content key: timeouts shape execution, not
	// results.
	r.spec.TimeoutMs = s.TimeoutMs
	return r, nil
}

// ContentKey resolves the spec and returns the content address its
// result is (or will be) stored under.
func (s JobSpec) ContentKey() (string, error) {
	r, err := s.resolve()
	if err != nil {
		return "", err
	}
	return r.key, nil
}

func resolveSweep(j SweepJob) (*resolvedJob, error) {
	hw, err := resolveHW(j.Hardware, j.ScaleNs, 0)
	if err != nil {
		return nil, err
	}
	pol, ok := core.ParsePolicy(j.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)", j.Policy)
	}
	basis, err := surface.ParseBasis(j.Basis)
	if err != nil {
		return nil, err
	}
	if j.D == 0 {
		j.D = 3
	}
	if j.D < 3 || j.D%2 == 0 {
		return nil, fmt.Errorf("distance %d must be odd and ≥ 3", j.D)
	}
	if j.TauNs == 0 {
		j.TauNs = 1000
	}
	if j.P == 0 {
		j.P = 1e-3
	}
	if j.P < 0 || j.P >= 0.5 {
		return nil, fmt.Errorf("error rate %v out of range [0, 0.5)", j.P)
	}
	if j.Shots < 0 {
		return nil, fmt.Errorf("shots %d must be ≥ 0", j.Shots)
	}
	if j.TargetRCI < 0 {
		return nil, fmt.Errorf("target_rci %v must be ≥ 0", j.TargetRCI)
	}
	if j.MaxShots < 0 {
		return nil, fmt.Errorf("max_shots %d must be ≥ 0", j.MaxShots)
	}
	cycleP, cyclePP := j.CyclePNs, j.CyclePPrimeNs
	if cycleP == 0 {
		cycleP = hw.CycleNs()
	}
	if cyclePP == 0 {
		cyclePP = hw.CycleNs()
	}
	pt := sweep.Point{
		HW: hw, Policy: pol, D: j.D, TauNs: j.TauNs, P: j.P, Basis: basis,
		CyclePNs: cycleP, CyclePPrimeNs: cyclePP, EpsNs: j.EpsNs,
	}
	cfg := sweep.Config{Shots: j.Shots, Seed: j.Seed}.WithDefaults()
	adaptive := j.Adaptive || j.TargetRCI > 0 || j.MaxShots > 0
	var acfg sweep.AdaptiveConfig
	if adaptive {
		acfg = sweep.AdaptiveConfig{TargetRCI: j.TargetRCI, MaxShots: j.MaxShots}.WithDefaults()
		cfg.Adaptive = &acfg
	}

	r := &resolvedJob{pt: pt, scfg: cfg}
	// The echo must round-trip: resubmitting it has to resolve to the
	// same hardware (ScaleNs included — the profile's latencies scale,
	// not just the cycle times the Cycle*Ns fields capture) and hence
	// the same content key.
	r.spec = JobSpec{Type: "sweep", Sweep: &SweepJob{
		Hardware: hw.Name, ScaleNs: j.ScaleNs, Policy: pol.String(), D: j.D,
		TauNs: j.TauNs, P: j.P, Basis: basis.String(),
		CyclePNs: cycleP, CyclePPrimeNs: cyclePP,
		EpsNs: j.EpsNs, Shots: cfg.Shots, Seed: cfg.Seed,
	}}
	if adaptive {
		r.spec.Sweep.Adaptive = true
		r.spec.Sweep.TargetRCI = acfg.TargetRCI
		r.spec.Sweep.MaxShots = acfg.MaxShots
	}
	// The content address reuses the frozen sweep identities: the
	// canonical point key (which embeds the full hardware fingerprint,
	// so ScaleNs needs no separate line) plus the execution parameters
	// that feed the record.
	r.body = fmt.Sprintf("type=sweep\npoint=%s\nseed=%d\nshots=%d\n",
		pt.Key(), cfg.Seed, cfg.Shots)
	if adaptive {
		// The two adaptive knobs are part of the address. The ladder
		// base (one shard) and the stopping z (1.96) are fixed in
		// package sweep and absent here, so a change to either must
		// bump resultSchemaVersion (DESIGN.md §12).
		r.body += fmt.Sprintf("adaptive=1\ntarget-rci=%g\nmax-shots=%d\n",
			acfg.TargetRCI, acfg.MaxShots)
	}
	r.canonical = canonicalHeader() + r.body
	r.key = contentKey(r.canonical)
	return r, nil
}

func resolveTrace(j TraceJob) (*resolvedJob, error) {
	hw, err := resolveHW(j.Hardware, j.ScaleNs, 1000)
	if err != nil {
		return nil, err
	}
	basis, err := surface.ParseBasis(j.Basis)
	if err != nil {
		return nil, err
	}
	if len(j.Policies) == 0 {
		return nil, fmt.Errorf("trace job needs at least one policy")
	}
	var pols []core.Policy
	for _, name := range j.Policies {
		pol, ok := core.ParsePolicy(name)
		if !ok {
			return nil, fmt.Errorf("unknown policy %q (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)", name)
		}
		pols = append(pols, pol)
	}
	if j.D != 0 && (j.D < 3 || j.D%2 == 0) {
		return nil, fmt.Errorf("distance %d must be odd and ≥ 3", j.D)
	}
	if j.P < 0 || j.P >= 0.5 {
		return nil, fmt.Errorf("error rate %v out of range [0, 0.5)", j.P)
	}
	if j.Shots < 0 {
		return nil, fmt.Errorf("shots %d must be ≥ 0", j.Shots)
	}
	cfg := trace.Config{
		HW: hw, D: j.D, P: j.P, Basis: basis, EpsNs: j.EpsNs, MaxZ: j.MaxZ,
		Shots: j.Shots, Seed: j.Seed, StaggerNs: j.StaggerNs,
	}.WithDefaults()

	var prog *trace.Program
	source := ""
	if j.TraceText != "" {
		prog, err = trace.ParseString(j.TraceText)
		if err != nil {
			return nil, fmt.Errorf("trace_text: %w", err)
		}
	} else {
		source = j.Workload
		if source == "" {
			source = "factory"
		}
		prog, err = trace.Generate(j.Workload, j.Patches, j.Merges, hw.CycleNs(), cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if prog.Merges() == 0 {
		return nil, fmt.Errorf("trace program has no MERGE operations")
	}

	// Canonicalize the program through its round-trip text form, so a
	// file with comments, a hand-typed equivalent, and the generated
	// workload that produced it all share one content address.
	text := prog.Text()
	names := make([]string, len(pols))
	for i, pol := range pols {
		names[i] = pol.String()
	}
	stagger := cfg.StaggerNs
	if stagger < 0 {
		stagger = 0 // every negative sentinel means the same "none"
	}
	r := &resolvedJob{prog: prog, tcfg: cfg, pols: pols}
	// The echo must round-trip to the same hardware and content key, so
	// the scale is normalized (0 → the 1000ns default, negatives → -1
	// "native") and echoed alongside the profile name.
	echoScale := j.ScaleNs
	if echoScale == 0 {
		echoScale = 1000
	} else if echoScale < 0 {
		echoScale = -1
	}
	r.spec = JobSpec{Type: "trace", Trace: &TraceJob{
		TraceText: text, Workload: source, Policies: names,
		Hardware: hw.Name, ScaleNs: echoScale, D: cfg.D, P: cfg.P,
		Basis: basis.String(), EpsNs: cfg.EpsNs, MaxZ: cfg.MaxZ,
		StaggerNs: cfg.StaggerNs, Shots: cfg.Shots, Seed: cfg.Seed,
	}}
	r.body = fmt.Sprintf("type=trace\nhw=%s\nd=%d\np=%s\nbasis=%s\neps=%d\nmaxz=%d\nstagger=%d\nshots=%d\nseed=%d\npolicies=%s\ntrace:\n%s",
		sweep.HardwareKey(hw), cfg.D,
		strconv.FormatFloat(cfg.P, 'g', -1, 64), basis.String(),
		cfg.EpsNs, cfg.MaxZ, stagger, cfg.Shots, cfg.Seed,
		strings.Join(names, ","), text)
	r.canonical = canonicalHeader() + r.body
	r.key = contentKey(r.canonical)
	return r, nil
}

// resolveBatch resolves each member point and splices their canonical
// bodies into one composite descriptor, so a batch's content address is
// a pure function of its points (order included — batches are cut from
// the canonical grid order, which the aggregate bytes depend on).
func resolveBatch(j BatchJob) (*resolvedJob, error) {
	if len(j.Points) == 0 {
		return nil, fmt.Errorf("batch job needs at least one point")
	}
	if len(j.Points) > maxBatchPoints {
		return nil, fmt.Errorf("batch of %d points exceeds the %d bound", len(j.Points), maxBatchPoints)
	}
	units := make([]*resolvedJob, len(j.Points))
	for i, p := range j.Points {
		u, err := resolveSweep(p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		units[i] = u
	}
	return compositeResolved("batch", units), nil
}

// compositeResolved assembles a batch or campaign resolvedJob from its
// resolved member units. The canonical descriptor concatenates the unit
// bodies (each already carrying the frozen point key, seed and shots),
// so the composite's content address depends only on the physics — not
// on batch size or any other execution parameter.
func compositeResolved(kind string, units []*resolvedJob) *resolvedJob {
	r := &resolvedJob{units: units}
	var b strings.Builder
	fmt.Fprintf(&b, "type=%s\nunits=%d\n", kind, len(units))
	points := make([]SweepJob, len(units))
	for i, u := range units {
		b.WriteString(u.body)
		points[i] = *u.spec.Sweep
	}
	r.body = b.String()
	r.canonical = canonicalHeader() + r.body
	r.key = contentKey(r.canonical)
	if kind == "batch" {
		r.spec = JobSpec{Type: "batch", Batch: &BatchJob{Points: points}}
	}
	return r
}

// resolveCampaign expands the grid through the shared GridSpec grammar
// into canonical-order points, resolves each as a sweep unit, and
// derives the campaign's content address from the units alone —
// BatchPoints shapes scheduling, never bytes.
func resolveCampaign(j CampaignJob) (*resolvedJob, error) {
	grid, err := sweep.ParseGridSpec(sweep.GridSpec{
		Hardware: j.Hardware, ScaleNs: j.ScaleNs,
		Policies: j.Policies, Distances: j.Distances, TausNs: j.TausNs,
		ErrorRates: j.ErrorRates, Bases: j.Bases,
		CyclePNs: j.CyclePNs, CyclePPrimeNs: j.CyclePPrimeNs, EpsNs: j.EpsNs,
	})
	if err != nil {
		return nil, err
	}
	pts, err := grid.Points()
	if err != nil {
		return nil, err
	}
	if len(pts) > maxCampaignPoints {
		return nil, fmt.Errorf("campaign of %d points exceeds the %d bound", len(pts), maxCampaignPoints)
	}
	if j.Shots < 0 {
		return nil, fmt.Errorf("shots %d must be ≥ 0", j.Shots)
	}
	if j.BatchPoints < 0 {
		return nil, fmt.Errorf("batch_points %d must be ≥ 0", j.BatchPoints)
	}
	cfg := sweep.Config{Shots: j.Shots, Seed: j.Seed}.WithDefaults()
	units := make([]*resolvedJob, len(pts))
	for i, pt := range pts {
		// Rebuild each point as a SweepJob so units resolve through the
		// same normalization (and to the same content keys) a standalone
		// submission of the point would. The point's cycle times are
		// already resolved, so they pass through explicitly.
		u, err := resolveSweep(SweepJob{
			Hardware: pt.HW.Name, ScaleNs: j.ScaleNs,
			Policy: pt.Policy.String(), D: pt.D, TauNs: pt.TauNs, P: pt.P,
			Basis: pt.Basis.String(), CyclePNs: pt.CyclePNs,
			CyclePPrimeNs: pt.CyclePPrimeNs, EpsNs: pt.EpsNs,
			Shots: cfg.Shots, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("grid point %d (%s): %w", i, pt.Key(), err)
		}
		units[i] = u
	}
	r := compositeResolved("campaign", units)
	r.batch = j.BatchPoints
	if r.batch == 0 {
		r.batch = DefaultBatchPoints
	}
	// The echo normalizes the axis lists (trimmed, comma-joined) and the
	// resolved defaults, and must round-trip: resubmitting it parses to
	// the same grid, the same points, the same key.
	norm := func(s string) string { return strings.Join(sweep.SplitList(s), ",") }
	r.spec = JobSpec{Type: "campaign", Campaign: &CampaignJob{
		Hardware: grid.HW.Name, ScaleNs: j.ScaleNs,
		Policies: norm(j.Policies), Distances: norm(j.Distances),
		TausNs: norm(j.TausNs), ErrorRates: norm(j.ErrorRates),
		Bases: norm(j.Bases), CyclePNs: j.CyclePNs,
		CyclePPrimeNs: norm(j.CyclePPrimeNs), EpsNs: j.EpsNs,
		Shots: cfg.Shots, Seed: cfg.Seed, BatchPoints: r.batch,
	}}
	return r, nil
}

// contentKey hashes a canonical job descriptor into the store address:
// lowercase hex SHA-256.
func contentKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}
