// Package latticesim is a Go reproduction of "Synchronization for
// Fault-Tolerant Quantum Computers" (Maurya & Tannu, ISCA 2025): a
// stabilizer-circuit generator and sampler for surface code Lattice
// Surgery, together with the paper's synchronization policies (Passive,
// Active, Active-intra, Extra Rounds, Hybrid) and the control
// microarchitecture that applies them at runtime.
//
// The package is a facade over the internal implementation:
//
//   - build lattice-surgery experiments with MergeSpec / MemorySpec,
//   - resolve a synchronization policy into a concrete schedule with
//     ComputePlan or SpecForPolicy,
//   - estimate logical error rates with NewPipeline,
//   - drive the runtime engine with NewEngine,
//   - simulate whole multi-patch programs with ParseTrace /
//     SimulateTrace,
//   - serve jobs from an embeddable queue server with a
//     content-addressed result store via NewService,
//   - join a coordinator's fleet as a pull-based execution node via
//     NewWorkerNode, and
//   - regenerate every table and figure of the paper via Experiments.
//
// See the examples directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package latticesim

import (
	"io"

	"latticesim/internal/circuit"
	"latticesim/internal/core"
	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/exp"
	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/microarch"
	"latticesim/internal/obs"
	"latticesim/internal/service"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
	"latticesim/internal/worker"
)

// Synchronization policies (§4 of the paper).
type Policy = core.Policy

// Policy values.
const (
	Ideal       = core.Ideal
	Passive     = core.Passive
	Active      = core.Active
	ActiveIntra = core.ActiveIntra
	ExtraRounds = core.ExtraRounds
	Hybrid      = core.Hybrid
)

// Core synchronization types.
type (
	// Params describes a two-patch synchronization problem.
	Params = core.Params
	// Plan is a resolved synchronization schedule.
	Plan = core.Plan
	// PatchState is a patch's runtime phase (cycle time + elapsed time).
	PatchState = core.PatchState
	// PairPlan is a pairwise synchronization directive.
	PairPlan = core.PairPlan
)

// ComputePlan derives the synchronization plan for a policy.
func ComputePlan(policy Policy, prm Params) Plan { return core.Compute(policy, prm) }

// SelectPolicy applies the runtime policy choice of §5.
func SelectPolicy(prm Params) Plan { return core.Select(prm) }

// SolveExtraRounds solves Eq. 1 (n·T_P′ = m·T_P + τ).
func SolveExtraRounds(tp, tpPrime, tau int64, maxM int) (m, n int, ok bool) {
	return core.SolveExtraRounds(tp, tpPrime, tau, maxM)
}

// SolveHybrid solves Eq. 2 (residual slack below ε after z extra rounds).
func SolveHybrid(tp, tpPrime, tau, eps int64, maxZ int) (z, n int, residualNs int64, ok bool) {
	return core.SolveHybrid(tp, tpPrime, tau, eps, maxZ)
}

// SynchronizeK synchronizes k patches pairwise against the slowest (§4.3).
func SynchronizeK(patches []PatchState, policy Policy, epsNs int64, maxZ int) []PairPlan {
	return core.SynchronizeK(patches, policy, epsNs, maxZ)
}

// Hardware platform configurations (Table 3).
type HardwareConfig = hardware.Config

// Platform constructors.
var (
	IBM        = hardware.IBM
	Google     = hardware.Google
	QuEra      = hardware.QuEra
	Sherbrooke = hardware.Sherbrooke
)

// Surface code experiment construction.
type (
	// Basis selects XX or ZZ lattice surgery.
	Basis = surface.Basis
	// MergeSpec configures a two-patch lattice surgery experiment.
	MergeSpec = surface.MergeSpec
	// MergeResult is the generated circuit plus metadata.
	MergeResult = surface.MergeResult
	// MemorySpec configures a single-patch memory experiment.
	MemorySpec = surface.MemorySpec
	// Circuit is the stabilizer-circuit IR (Stim-compatible text format).
	Circuit = circuit.Circuit
)

// Basis values.
const (
	BasisZ = surface.BasisZ
	BasisX = surface.BasisX
)

// Observable indices of merge experiments.
const (
	ObsJoint  = surface.ObsJoint
	ObsSingle = surface.ObsSingle
)

// SpecForPolicy resolves a policy into a runnable merge experiment.
func SpecForPolicy(d int, basis Basis, hw HardwareConfig, p float64, policy Policy,
	tauNs, cyclePNs, cyclePPrimeNs float64, epsNs int64) (MergeSpec, Plan, bool) {
	return exp.SpecForPolicy(d, basis, hw, p, policy, tauNs, cyclePNs, cyclePPrimeNs, epsNs)
}

// Decoding and sampling.
type (
	// Pipeline bundles sampler, detector error model and decoder. Its
	// Monte Carlo entry points shard shots across Pipeline.Workers
	// goroutines (default: all CPUs) with bit-identical results for any
	// worker count; see DESIGN.md §5. The inner loop executes a compiled
	// sampler plan with sparse syndrome extraction and zero-syndrome
	// decode skipping (DESIGN.md §9), bit-identical to interpretation.
	Pipeline = mc.Pipeline
	// LERResult reports logical error statistics.
	LERResult = mc.LERResult
	// DetectorErrorModel is the extracted error model.
	DetectorErrorModel = dem.Model
	// Decoder predicts observable flips from fired detectors.
	Decoder = decoder.Decoder
	// SamplerPlan is a compiled, immutable sampler execution plan: gate
	// layers fused, noise constants precomputed, annotations dropped.
	// Mint per-goroutine samplers from one shared plan with NewSampler.
	SamplerPlan = frame.Plan
	// FrameSampler samples detector/observable flips 64 shots at a time.
	FrameSampler = frame.Sampler
)

// NewPipeline builds the sample→DEM→decode pipeline for a circuit,
// including its compiled sampler plan.
func NewPipeline(c *Circuit) (*Pipeline, error) { return mc.NewPipeline(c) }

// CompileSampler lowers a circuit into a compiled sampler plan. The plan
// produces bit-identical samples to direct interpretation of the circuit
// and is safe to share across goroutines (each NewSampler owns private
// scratch).
func CompileSampler(c *Circuit) *SamplerPlan { return frame.Compile(c) }

// ExtractDEM computes the detector error model of a circuit.
func ExtractDEM(c *Circuit) *DetectorErrorModel { return dem.FromCircuit(c) }

// Runtime synchronization engine (Fig. 12).
type (
	// Engine is the synchronization engine with its patch tables.
	Engine = microarch.Engine
	// Schedule is a synchronized schedule for the QEC controller.
	Schedule = microarch.Schedule
)

// NewEngine creates a synchronization engine with the given patch
// capacity.
func NewEngine(capacity int) *Engine { return microarch.NewEngine(capacity) }

// Sweep campaigns: declarative parameter grids with cached build
// artifacts, machine-readable records and resumable manifests (the
// engine behind `latticesim sweep`; see EXPERIMENTS.md).
type (
	// SweepGrid declares a policies × distances × slacks × error rates ×
	// bases campaign.
	SweepGrid = sweep.Grid
	// SweepPoint is one concrete experiment of a campaign.
	SweepPoint = sweep.Point
	// SweepConfig carries campaign execution parameters.
	SweepConfig = sweep.Config
	// SweepAdaptive switches a campaign to adaptive shot allocation:
	// sequential stopping on confidence-interval width with budget
	// reallocation across points (EXPERIMENTS.md §12). Set it as
	// SweepConfig.Adaptive.
	SweepAdaptive = sweep.AdaptiveConfig
	// SweepRecord is the machine-readable result of one campaign point.
	SweepRecord = sweep.Record
	// SweepSummary reports what a campaign run did.
	SweepSummary = sweep.Summary
	// SweepCampaign binds a grid to its outputs (sinks, manifest, cache).
	SweepCampaign = sweep.Campaign
	// SweepSink receives completed records in canonical point order.
	SweepSink = sweep.Sink
	// BuildCache deduplicates circuit/DEM/decoder-graph artifacts across
	// campaign points, keyed by canonical spec hash.
	BuildCache = sweep.BuildCache
)

// NewBuildCache returns an empty artifact cache; share one across
// campaigns to deduplicate their common specs.
func NewBuildCache() *BuildCache { return sweep.NewBuildCache() }

// CollectSweep runs a grid in memory and returns its records in
// canonical point order. cache may be nil.
func CollectSweep(g SweepGrid, cfg SweepConfig, cache *BuildCache) ([]SweepRecord, error) {
	return sweep.Collect(g, cfg, cache)
}

// Trace-driven multi-patch simulation: whole lattice-surgery programs
// (PATCH/MERGE/IDLE traces) executed under a synchronization policy,
// with per-program timing breakdowns and Monte Carlo logical error
// rates (the engine behind `latticesim trace`; see DESIGN.md §10).
type (
	// TraceProgram is a parsed or generated lattice-surgery trace.
	TraceProgram = trace.Program
	// TracePatch declares one logical patch of a trace program.
	TracePatch = trace.PatchDecl
	// TraceOp is one MERGE or IDLE operation of a trace program.
	TraceOp = trace.Op
	// TraceConfig carries the physical and execution parameters of a
	// trace simulation; its zero value is runnable.
	TraceConfig = trace.Config
	// TraceResult is the per-policy outcome: runtime, idle/extra-round
	// breakdowns, and the program logical error rate.
	TraceResult = trace.Result
)

// ParseTrace reads a trace program from its text format.
func ParseTrace(r io.Reader) (*TraceProgram, error) { return trace.Parse(r) }

// ParseTraceString parses a trace program from a string.
func ParseTraceString(s string) (*TraceProgram, error) { return trace.ParseString(s) }

// SimulateTrace runs a program under one synchronization policy.
func SimulateTrace(prog *TraceProgram, policy Policy, cfg TraceConfig) (*TraceResult, error) {
	return trace.Simulate(prog, policy, cfg)
}

// SimulateTraceAll runs a program under each policy with one shared
// build cache.
func SimulateTraceAll(prog *TraceProgram, policies []Policy, cfg TraceConfig) ([]*TraceResult, error) {
	return trace.SimulateAll(prog, policies, cfg)
}

// Built-in trace workload families: a magic-state factory pipeline,
// uniformly random merges, and a Fig. 17-style cycle-time ensemble.
var (
	FactoryTrace  = trace.Factory
	RandomTrace   = trace.Random
	EnsembleTrace = trace.Ensemble
)

// TraceResultSet is the machine-readable result schema shared by
// `latticesim trace -json` and the simulation service's trace jobs.
type TraceResultSet = trace.ResultSet

// NewTraceResultSet assembles the machine-readable form of a trace
// simulation from its resolved config and per-policy results.
func NewTraceResultSet(prog *TraceProgram, cfg TraceConfig, source string, results []*TraceResult) TraceResultSet {
	return trace.NewResultSet(prog, cfg, source, results)
}

// Simulation service: an embeddable coordinator with a bounded job
// queue, a content-addressed result store, streaming progress and a
// pull-based worker fleet (the engine behind `latticesim serve` /
// `latticesim submit` / `latticesim worker`; see API.md and DESIGN.md
// §11, §14, §15). Identical job submissions are served from the store
// bit-identically.
//
// Naming convention: every service-side type is Service*, every
// worker-node type is Worker*.
type (
	// Service is the embeddable simulation server: bounded job queue,
	// in-process nodes over one shared BuildCache, content-addressed
	// store, and the coordinator of the distributed campaign fabric.
	Service = service.Server
	// ServiceOptions configures a Service; the zero value works
	// (memory-only store, 2 workers). Set Workers negative for a pure
	// coordinator that leases all execution to remote worker nodes.
	ServiceOptions = service.Options
	// ServiceClient is the Go client of the service HTTP API.
	ServiceClient = service.Client
	// ServiceJob describes one job: a sweep point, a trace run, a batch
	// of sweep points, or a campaign over a sweep grid.
	ServiceJob = service.JobSpec
	// ServiceSweepJob configures a sweep-point job.
	ServiceSweepJob = service.SweepJob
	// ServiceTraceJob configures a trace-simulation job.
	ServiceTraceJob = service.TraceJob
	// ServiceBatchJob configures a batch job: a slice of sweep points
	// executed as one work unit (the leasing granularity of campaigns).
	ServiceBatchJob = service.BatchJob
	// ServiceCampaignJob configures a campaign: a sweep grid split into
	// batch children scheduled across the fleet and aggregated into one
	// result byte-identical to `latticesim sweep -json`.
	ServiceCampaignJob = service.CampaignJob
	// ServiceJobStatus is a job's queue state, progress and result key.
	ServiceJobStatus = service.JobStatus
	// ServiceCampaignStatus is a campaign's status with per-batch
	// detail.
	ServiceCampaignStatus = service.CampaignStatus
	// ServiceStats are the server's queue/fleet/store/build-cache
	// counters, including recovery counters (attempts, requeues,
	// cancellations, integrity checks).
	ServiceStats = service.Stats
	// ServiceRetryPolicy configures client-side retries with jittered
	// exponential backoff; set it on ServiceClient.Retry.
	ServiceRetryPolicy = service.RetryPolicy
	// ServiceAttemptFailure is one recorded failed execution attempt in
	// a job's retry history (JobStatus.Failures).
	ServiceAttemptFailure = service.AttemptFailure
	// ServiceAPIError is the structured error every v1 endpoint returns
	// on failure: a stable machine-readable code, a human-readable
	// message, and an optional retry hint.
	ServiceAPIError = service.APIError
	// ServiceStatusError is the client-side error carrying the HTTP
	// status and decoded ServiceAPIError of a failed request; inspect
	// its code with ServiceErrorCode.
	ServiceStatusError = service.APIStatusError
	// ServiceStoreBackend is the result-store interface a Service's
	// Store method returns: its built-in disk or memory store, behind
	// the metrics decorator.
	ServiceStoreBackend = service.StoreBackend
	// ServiceWorkerInfo describes one registered fleet node
	// (GET /v1/workers).
	ServiceWorkerInfo = service.WorkerInfo
	// ServiceLeaseGrant is one leased work unit handed to a worker node.
	ServiceLeaseGrant = service.LeaseGrant
	// ServiceLeaseUpdate is a worker's report on a leased unit:
	// heartbeat, complete, or fail.
	ServiceLeaseUpdate = service.LeaseUpdate
)

// NewService starts an embeddable simulation server; expose it over
// HTTP with its Handler method and stop it with Close.
func NewService(opts ServiceOptions) (*Service, error) { return service.New(opts) }

// NewServiceClient returns a client for the simulation service at base
// (e.g. "http://127.0.0.1:8642").
func NewServiceClient(base string) *ServiceClient { return service.NewClient(base) }

// DefaultServiceRetryPolicy is the retry policy `latticesim submit
// -retry` uses: 5 retries, 100ms base delay, 5s cap, full jitter. It
// honors server retry hints (Retry-After / retry_after_ms) as backoff
// floors.
func DefaultServiceRetryPolicy() *ServiceRetryPolicy { return service.DefaultRetryPolicy() }

// ServiceErrorCode extracts the stable machine-readable error code
// ("queue_full", "not_found", ...) from an error returned by a
// ServiceClient, or "" if the error carries none.
func ServiceErrorCode(err error) string { return service.ErrorCode(err) }

// Worker fleet: pull-based execution nodes of the distributed campaign
// fabric (the engine behind `latticesim worker`; see DESIGN.md §15). A
// node registers with a coordinator, leases work units over HTTP,
// executes them with the same deterministic executors the coordinator
// uses, and reports results under the lease's fencing token.
type (
	// WorkerNode is one fleet node instance; construct with
	// NewWorkerNode and drive with Run.
	WorkerNode = worker.Worker
	// WorkerOptions configures a WorkerNode; Coordinator is required.
	WorkerOptions = worker.Options
	// WorkerStats counts a node's lifetime outcomes (leased, completed,
	// failed, abandoned).
	WorkerStats = worker.Stats
)

// NewWorkerNode builds a worker node for the coordinator named in
// opts; Run it with a context to join the fleet until canceled.
func NewWorkerNode(opts WorkerOptions) (*WorkerNode, error) { return worker.New(opts) }

// Observability: the dependency-free metrics registry, NDJSON span
// writer and structured logger behind GET /metrics, the
// X-Latticesim-Trace header and -log-json (DESIGN.md §16). Wire them
// into ServiceOptions / WorkerOptions, or serve MetricsRegistry's
// Handler from any HTTP mux.
type (
	// MetricsRegistry is a concurrency-safe Prometheus-text metric
	// registry (counters, gauges, histograms, labeled families).
	MetricsRegistry = obs.Registry
	// SpanWriter emits job/attempt/lease/unit trace spans as NDJSON.
	SpanWriter = obs.SpanWriter
	// SpanEvent is one NDJSON trace record (phase "start" or "end").
	SpanEvent = obs.SpanEvent
	// StructuredLogger writes leveled structured NDJSON log lines.
	StructuredLogger = obs.Logger
	// LogLevel orders structured log severities.
	LogLevel = obs.Level
)

// TraceIDHeader is the HTTP header that carries a job's trace ID:
// set it on submissions to join an existing trace, read it from
// submission responses and lease grants to follow one.
const TraceIDHeader = obs.TraceHeader

// NewMetricsRegistry returns an empty metric registry; expose it with
// its Handler method or WritePrometheus.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanWriter wraps w as a concurrency-safe NDJSON span sink (nil w
// yields a nil writer, which silently drops every event).
func NewSpanWriter(w io.Writer) *SpanWriter { return obs.NewSpanWriter(w) }

// NewStructuredLogger returns a leveled NDJSON logger writing events
// at or above min to w. It may share w with a SpanWriter: both emit
// whole lines in single Write calls.
func NewStructuredLogger(w io.Writer, min LogLevel) *StructuredLogger { return obs.NewLogger(w, min) }

// ParseLogLevel maps "debug", "info", "warn" or "error" to its
// LogLevel (unknown strings default to info).
func ParseLogLevel(s string) LogLevel { return obs.ParseLevel(s) }

// Experiments: regeneration of the paper's tables and figures.
type (
	// Experiment regenerates one table or figure.
	Experiment = exp.Experiment
	// Options scales experiments to available compute.
	Options = exp.Options
)

// Experiments returns the full experiment registry in paper order.
func Experiments() []Experiment { return exp.All() }

// RunExperiment runs one experiment by ID (e.g. "fig14", "table2").
func RunExperiment(id string, w io.Writer, o Options) error {
	e, ok := exp.ByID(id)
	if !ok {
		return errUnknownExperiment(id)
	}
	return e.Run(w, o)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "latticesim: unknown experiment " + string(e)
}
