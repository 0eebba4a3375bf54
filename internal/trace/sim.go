package trace

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/microarch"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// Config carries the physical and execution parameters of a trace
// simulation. The zero value is runnable: IBM hardware, d=3, p=1e-3,
// X-basis merges, ε=400ns (Table 2), maxZ=5, 4096 shots per merge pair,
// seed 0xC0FFEE.
type Config struct {
	// HW is the hardware profile (zero value: hardware.IBM()).
	HW hardware.Config
	// D is the code distance (0 = 3).
	D int
	// P is the circuit-level depolarizing strength (0 = 1e-3).
	P float64
	// Basis selects XX or ZZ lattice surgery for every merge.
	Basis surface.Basis
	// EpsNs is the Hybrid policy's residual tolerance (0 = 400, Table 2).
	EpsNs int64
	// MaxZ bounds the Hybrid extra-round search (0 = 5, §4.2.1).
	MaxZ int
	// Shots is the Monte Carlo budget per merge pair (0 = 4096).
	Shots int
	// Seed is the campaign seed; each merge event derives its own RNG
	// stream from it (0 = 0xC0FFEE).
	Seed uint64
	// Workers is the number of CPUs a simulation uses (0 = all CPUs):
	// seams run concurrently, and a seam's shard pool gets the share the
	// seam pool cannot use. Results are bit-identical for any value: the
	// event loop plans every seam before any runs, seam seeds are keyed
	// on the event, and the shot executor is worker-count independent
	// (DESIGN.md §5, §10).
	Workers int
	// Progress, when set, observes merge-event completion: it is called
	// once per MERGE operation, in program order, with the cumulative
	// count and the program's total merge count. A merge counts as done
	// when its seams and every earlier merge's seams have finished.
	// Purely observational (results are identical with or without it);
	// calls come from Simulate's own goroutine. The simulation service
	// uses it to stream per-job progress events.
	Progress func(doneMerges, totalMerges int)
	// StaggerNs is the initial phase offset between consecutively
	// registered patches, modeling patches coming online at different
	// times (0 = 135ns; negative = no stagger). Without stagger a
	// homogeneous-cycle program never accumulates slack. The default is
	// a multiple of 5 so that on cycle grids like the bundled traces'
	// (1000/1105/1210/1325ns) slacks stay commensurate with the cycle
	// gcds and Extra Rounds' Eq. 1 is sometimes solvable; a co-prime
	// stagger silently degrades Extra Rounds to all-Active fallbacks.
	StaggerNs int64
	// Cache deduplicates merge-circuit build artifacts across events and
	// across policies. Optional; a private cache is used when nil. Pass a
	// shared cache when simulating several policies over one trace.
	Cache *sweep.BuildCache
	// Ctx, when non-nil, cancels the simulation: it is checked before
	// each seam is handed out and the seam Monte Carlo runs observe it at
	// shard boundaries, so Simulate returns ctx's error promptly with no
	// partial Result, once every goroutine it started has exited. As
	// everywhere in the repo, cancellation can only lose a result, never
	// change one. The simulation service threads per-job contexts through
	// here (DESIGN.md §14).
	Ctx context.Context
}

// WithDefaults resolves the zero values to the documented defaults.
// Callers that need the resolved values up front (e.g. to print the
// effective seed) should resolve once and reuse.
func (c Config) WithDefaults() Config {
	if c.HW.Name == "" {
		c.HW = hardware.IBM()
	}
	if c.D == 0 {
		c.D = 3
	}
	if c.P == 0 {
		c.P = 1e-3
	}
	if c.EpsNs == 0 {
		c.EpsNs = 400
	}
	if c.MaxZ == 0 {
		c.MaxZ = 5
	}
	if c.Shots == 0 {
		c.Shots = 4096
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	if c.StaggerNs == 0 {
		// Negative values mean "no stagger" and are preserved, so
		// resolving an already-resolved config is a no-op.
		c.StaggerNs = 135
	}
	return c
}

// stagger returns the effective inter-patch phase offset: the resolved
// StaggerNs, with the negative "no stagger" sentinel mapped to 0.
func (c Config) stagger() int64 {
	if c.StaggerNs < 0 {
		return 0
	}
	return c.StaggerNs
}

// PatchStats is the per-patch breakdown of a simulation. The JSON field
// names are part of the machine-readable trace result schema (see
// ResultSet).
type PatchStats struct {
	Name string `json:"name"`
	// CycleNs is the resolved cycle time (declared cycles below the
	// hardware base are raised to it).
	CycleNs float64 `json:"cycle_ns"`
	// Merges counts the merge operations the patch participated in.
	Merges int `json:"merges"`
	// SyncIdleNs is the policy-injected idle time charged to the patch.
	SyncIdleNs float64 `json:"sync_idle_ns"`
	// ExtraRounds counts policy-mandated extra syndrome rounds.
	ExtraRounds int `json:"extra_rounds"`
	// IdleRounds counts IDLE-op memory rounds.
	IdleRounds int `json:"idle_rounds"`
}

// MergeStats records one executed merge event. The JSON field names are
// part of the machine-readable trace result schema (see ResultSet).
type MergeStats struct {
	// Op is the index of the MERGE operation in Program.Ops.
	Op int `json:"op"`
	// StartNs is the program time at which the merged rounds begin.
	StartNs float64 `json:"start_ns"`
	// SyncNs is the synchronization wait this merge spent (from event
	// issue to alignment of every participant).
	SyncNs float64 `json:"sync_ns"`
	// SkewNs totals the waits of pairs that aligned before the slowest
	// pair of this merge did.
	SkewNs float64 `json:"skew_ns"`
	// FailProb is the merge's logical failure probability: 1 − Π over
	// its pairwise seams of (1 − joint LER).
	FailProb float64 `json:"fail_prob"`
	// FallbackPairs counts pairs whose requested policy was infeasible
	// and fell back to Active (§5 runtime selection).
	FallbackPairs int `json:"fallback_pairs"`
}

// Result is the outcome of simulating one program under one policy.
// Every field is a deterministic function of (program, policy, config) —
// independent of Config.Workers. The JSON field names are part of the
// machine-readable trace result schema shared by `latticesim trace
// -json` and the simulation service (see ResultSet); Policy marshals as
// its paper name via core.Policy.MarshalText.
type Result struct {
	Policy  core.Policy `json:"policy"`
	Patches int         `json:"patches"`
	// MergeOps and IdleOps count executed trace operations.
	MergeOps int `json:"merge_ops"`
	IdleOps  int `json:"idle_ops"`
	// RuntimeNs is the program makespan: the global clock after the last
	// operation completed.
	RuntimeNs float64 `json:"runtime_ns"`
	// SyncIdleNs totals the policy-injected idle across all patches.
	SyncIdleNs float64 `json:"sync_idle_ns"`
	// SkewWaitNs totals cross-pair alignment waits in k-patch merges
	// (pairs that aligned before the slowest pair did). It is timing
	// bookkeeping only and is not charged into the Monte Carlo circuits.
	SkewWaitNs float64 `json:"skew_wait_ns"`
	// ExtraRounds totals policy-mandated extra syndrome rounds.
	ExtraRounds int `json:"extra_rounds"`
	// IdleRounds totals IDLE-op memory rounds.
	IdleRounds int `json:"idle_rounds"`
	// FallbackPairs counts pairwise plans that fell back to Active.
	FallbackPairs int `json:"fallback_pairs"`
	// RaisedCycles counts patches whose declared cycle was below the
	// hardware base cycle and was raised to it.
	RaisedCycles int `json:"raised_cycles"`
	// ProgramLER is the whole-program logical error probability,
	// 1 − Π over merges (1 − merge failure probability), under the
	// independence approximation of the paper's program-level model.
	ProgramLER float64 `json:"program_ler"`
	// PerPatch and PerMerge are the detailed breakdowns.
	PerPatch []PatchStats `json:"per_patch"`
	PerMerge []MergeStats `json:"per_merge"`
}

// Simulate runs the program under one synchronization policy in three
// steps. Plan runs the whole event loop (registration, IDLE, PlanSync,
// timing and charges), which never reads a Monte Carlo result, and
// emits one seam per merge pair. Execute runs the seams on a pool of
// goroutines. Compose folds the seam rates into each merge's FailProb
// and the program LER in event and pair order. See the package comment
// for the event model and DESIGN.md §10 for its approximations.
func Simulate(prog *Program, policy core.Policy, cfg Config) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	if prog.Merges() == 0 {
		return nil, fmt.Errorf("trace: program has no MERGE operations")
	}
	res, seams, err := plan(prog, policy, cfg)
	if err != nil {
		return nil, err
	}
	rates, err := runSeams(prog, seams, cfg)
	if err != nil {
		return nil, err
	}

	survival := make([]float64, len(res.PerMerge))
	for m := range survival {
		survival[m] = 1
	}
	for i, s := range seams {
		survival[s.merge] *= 1 - rates[i]
	}
	program := 1.0
	for m, sv := range survival {
		res.PerMerge[m].FailProb = 1 - sv
		program *= sv
	}
	res.ProgramLER = 1 - program
	return res, nil
}

// seam is one pairwise seam of a planned merge: the Monte Carlo run
// that estimates the pair's joint logical error rate.
type seam struct {
	merge       int // index into Result.PerMerge
	op          int // index into Program.Ops
	early, late int // patch indices
	spec        surface.MergeSpec
	seed        uint64
}

// plan runs the event loop: it fills every field of the Result except
// the failure probabilities and returns the seams in event and pair
// order.
func plan(prog *Program, policy core.Policy, cfg Config) (*Result, []seam, error) {
	base := cfg.HW.CycleNs()
	res := &Result{Policy: policy, Patches: len(prog.Patches)}
	cycles := make([]float64, len(prog.Patches))
	for i, pd := range prog.Patches {
		cycles[i] = pd.CycleNs
		if cycles[i] == 0 {
			cycles[i] = base
		}
		if cycles[i] < base {
			cycles[i] = base
			res.RaisedCycles++
		}
		res.PerPatch = append(res.PerPatch, PatchStats{Name: pd.Name, CycleNs: cycles[i]})
	}

	// Register patches with a deterministic stagger: after each
	// registration the global clock advances, so patch i comes online
	// i·StaggerNs after patch 0 and the program starts phase-skewed, as a
	// running computer would be.
	eng := microarch.NewEngine(len(prog.Patches))
	for i := range prog.Patches {
		id, err := eng.Register(int64(cycles[i] + 0.5))
		if err != nil {
			return nil, nil, fmt.Errorf("trace: patch %q: %w (scale the hardware profile down, e.g. latticesim trace -scale 1000)", prog.Patches[i].Name, err)
		}
		if id != i {
			return nil, nil, fmt.Errorf("trace: engine assigned id %d to patch %d", id, i)
		}
		if i < len(prog.Patches)-1 {
			eng.Tick(cfg.stagger())
		}
	}

	clockNs := float64(len(prog.Patches)-1) * float64(cfg.stagger())
	pending := make([]int, len(prog.Patches)) // accumulated IDLE rounds per patch
	var seams []seam
	for opIdx, op := range prog.Ops {
		switch op.Kind {
		case OpIdle:
			p := op.Patches[0]
			pending[p] += op.Rounds
			res.IdleRounds += op.Rounds
			res.PerPatch[p].IdleRounds += op.Rounds
			advance := float64(op.Rounds) * cycles[p]
			eng.Tick(int64(advance + 0.5))
			clockNs += advance

		case OpMerge:
			ms, err := planMerge(eng, op, opIdx, cycles, pending, cfg, policy, res, &seams)
			if err != nil {
				return nil, nil, err
			}
			res.MergeOps++
			res.FallbackPairs += ms.FallbackPairs
			res.SkewWaitNs += ms.SkewNs

			// Advance through synchronization plus the merged rounds at
			// the slowest participant's cycle.
			mergedCycle := 0.0
			for _, p := range op.Patches {
				if cycles[p] > mergedCycle {
					mergedCycle = cycles[p]
				}
				pending[p] = 0
				res.PerPatch[p].Merges++
			}
			mergedNs := float64(cfg.D+1) * mergedCycle
			ms.StartNs = clockNs + ms.SyncNs
			advance := ms.SyncNs + mergedNs
			eng.Tick(int64(advance + 0.5))
			clockNs += advance
			res.PerMerge = append(res.PerMerge, ms)
		}
	}
	res.IdleOps = len(prog.Ops) - res.MergeOps
	res.RuntimeNs = clockNs
	return res, seams, nil
}

// planMerge resolves one merge event: plan the synchronization from the
// engine's live phase state, charge each patch's directives, and append
// one seam per pair, carrying the Monte Carlo spec for the pair's plan
// and the seed derived from its event key.
func planMerge(eng *microarch.Engine, op Op, opIdx int, cycles []float64, pending []int,
	cfg Config, policy core.Policy, res *Result, seams *[]seam) (MergeStats, error) {
	ms := MergeStats{Op: opIdx}

	sched, err := eng.PlanSync(op.Patches, policy, cfg.EpsNs, cfg.MaxZ)
	if err != nil {
		return ms, err
	}
	remaining := make(map[int]float64, len(op.Patches))
	for _, p := range op.Patches {
		st, err := eng.State(p)
		if err != nil {
			return ms, err
		}
		remaining[p] = float64(st.RemainingNs())
	}

	// Alignment time of each pair, measured from now: the early patch
	// completes its cycle, absorbs its idle and runs its extra rounds;
	// plans guarantee the late patch arrives at the same instant (up to
	// integer rounding). The merge starts when the slowest pair aligns.
	// The Ideal baseline needs no synchronization at all: the merge
	// starts immediately, with no alignment wait. Every real policy waits
	// until its slowest pair aligns.
	syncNs := 0.0
	aligns := make([]float64, len(sched.Pairs))
	for i, pp := range sched.Pairs {
		if policy == core.Ideal {
			continue
		}
		earlyT := remaining[pp.Early] + pp.EarlyIdleNs + float64(pp.EarlyExtraRounds)*cycles[pp.Early]
		lateT := remaining[pp.Late] + float64(pp.LateExtraRounds)*cycles[pp.Late] + pp.LateIdleNs
		aligns[i] = earlyT
		if lateT > aligns[i] {
			aligns[i] = lateT
		}
		if aligns[i] > syncNs {
			syncNs = aligns[i]
		}
	}
	if len(sched.Pairs) == 0 {
		// Single-patch "merge" cannot happen (Validate enforces arity ≥ 2),
		// but a defensive floor keeps the clock monotonic.
		for _, p := range op.Patches {
			if remaining[p] > syncNs {
				syncNs = remaining[p]
			}
		}
	}
	ms.SyncNs = syncNs

	// Charge directives. Every pair shares the same late (reference)
	// patch, which physically runs the largest per-pair round demand, not
	// their sum; early patches each own their pair's directives.
	lateRounds, lateIdle := 0, 0.0
	for i, pp := range sched.Pairs {
		if pp.Plan.Policy != policy {
			ms.FallbackPairs++
		}
		ms.SkewNs += syncNs - aligns[i]
		res.SyncIdleNs += pp.EarlyIdleNs
		res.ExtraRounds += pp.EarlyExtraRounds
		res.PerPatch[pp.Early].SyncIdleNs += pp.EarlyIdleNs
		res.PerPatch[pp.Early].ExtraRounds += pp.EarlyExtraRounds
		if pp.LateExtraRounds > lateRounds {
			lateRounds = pp.LateExtraRounds
		}
		if pp.LateIdleNs > lateIdle {
			lateIdle = pp.LateIdleNs
		}

		spec := sweep.SpecForPair(cfg.D, cfg.Basis, cfg.HW, cfg.P, pp,
			cycles[pp.Early], cycles[pp.Late], pending[pp.Early], pending[pp.Late])
		*seams = append(*seams, seam{
			merge: len(res.PerMerge), op: opIdx, early: pp.Early, late: pp.Late, spec: spec,
			seed: sweep.DeriveSeed(cfg.Seed,
				fmt.Sprintf("trace merge=%d pair=%d %s", opIdx, i, sweep.SpecKey(spec))),
		})
	}
	ref := sched.Reference
	res.ExtraRounds += lateRounds
	res.SyncIdleNs += lateIdle
	res.PerPatch[ref].ExtraRounds += lateRounds
	res.PerPatch[ref].SyncIdleNs += lateIdle
	return ms, nil
}

// runSeams runs every seam's Monte Carlo and returns the joint logical
// error rates in seam order. The pool and the per-seam shard pools
// split the resolved Workers budget between them: pool = min(W, seams)
// seams run at once, each with W/pool shard workers, so no more than W
// goroutines sample at a time and a one-seam program keeps the full
// shard pool. Seams are handed out in event order from this goroutine,
// which also calls cfg.Progress, once per merge in order, when the
// merge's seams and every earlier merge's seams have finished. After a
// failure or cancellation no further seam is handed out; runSeams
// returns once every goroutine it started has exited. A seam's panic is
// raised again on this goroutine, where the caller can recover it.
func runSeams(prog *Program, seams []seam, cfg Config) ([]float64, error) {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	pool := max(1, min(w, len(seams)))
	cache := cfg.Cache
	if cache == nil {
		cache = sweep.NewBuildCache()
	}
	canceled := func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }

	rates := make([]float64, len(seams))
	errs := make([]error, len(seams))
	panics := make([]any, len(seams))
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		s := seams[i]
		if canceled() {
			errs[i] = cfg.Ctx.Err()
			return
		}
		cached, _, err := cache.Get(s.spec)
		if err != nil {
			errs[i] = fmt.Errorf("trace: op %d pair %s–%s: %w", s.op,
				prog.Patches[s.early].Name, prog.Patches[s.late].Name, err)
			return
		}
		// Run on a shallow copy so the shared cached pipeline is never
		// mutated (the same discipline as the sweep executor).
		pl := *cached
		pl.Workers = w / pool
		pl.Ctx = cfg.Ctx
		out := pl.Run(cfg.Shots, s.seed)
		if canceled() {
			// A canceled run's tally may be partial; drop it.
			errs[i] = cfg.Ctx.Err()
			return
		}
		rates[i] = out.Rate(surface.ObsJoint)
	}

	todo, done := make(chan int), make(chan int)
	var wg sync.WaitGroup
	for range pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				run(i)
				done <- i
			}
		}()
	}
	left := make([]int, prog.Merges()) // unfinished seams per merge
	for _, s := range seams {
		left[s.merge]++
	}
	next, running, reported, failed := 0, 0, 0, false
	for {
		var offer chan<- int
		if next < len(seams) && !failed && !canceled() {
			offer = todo
		}
		if offer == nil && running == 0 {
			break
		}
		select {
		case offer <- next:
			next++
			running++
		case i := <-done:
			running--
			if errs[i] != nil || panics[i] != nil {
				failed = true
				continue
			}
			left[seams[i].merge]--
			for reported < len(left) && left[reported] == 0 {
				reported++
				if cfg.Progress != nil {
					cfg.Progress(reported, len(left))
				}
			}
		}
	}
	close(todo)
	wg.Wait()

	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if canceled() {
		return nil, cfg.Ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rates, nil
}

// SimulateAll runs the program under each policy with one shared build
// cache, in the given order. Results are independent: each policy's
// outcome is exactly what Simulate alone would produce.
func SimulateAll(prog *Program, policies []core.Policy, cfg Config) ([]*Result, error) {
	if cfg.Cache == nil {
		cfg.Cache = sweep.NewBuildCache()
	}
	out := make([]*Result, 0, len(policies))
	for _, pol := range policies {
		r, err := Simulate(prog, pol, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace: policy %s: %w", pol, err)
		}
		out = append(out, r)
	}
	return out, nil
}
