package sweep

// Adaptive shot allocation (DESIGN.md §12, EXPERIMENTS.md §12). A fixed
// per-point budget wastes most of its shots on easy points — a p = 1e-2
// point pins its error rate a hundred times tighter than it needs while
// a p = 1e-4 point is still starved. The adaptive allocator turns the
// same total budget (Config.Shots × feasible points) into a pool: every
// feasible point is primed with a first checkpoint's worth of shots,
// and the remaining budget is repeatedly granted to whichever point
// currently has the widest relative confidence interval, until every
// point has converged to the target, hit its per-point cap, or the pool
// runs dry.
//
// Determinism contract. Only the budget *decision* is adaptive; the
// statistics are not. A point's record is a pure function of (point,
// seed, shots-granted): shots execute on the same sharded RNG schedule
// a single fixed run of the granted budget would use, stopping is
// evaluated only at checkpoints drawn from a canonical ladder, and ties
// in the widest-interval scheduler break by canonical point order. The
// worker count is therefore invisible in every granted budget and every
// emitted byte. Every point, rare or not, is estimated by the same plain
// Monte Carlo tally (Pipeline.RunFrom) that a fixed budget uses.

import (
	"fmt"
	"time"

	"latticesim/internal/mc"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
)

// Stop reasons recorded in Record.StopReason.
const (
	// StopFixed marks a record produced by a fixed (non-adaptive) budget.
	StopFixed = "fixed"
	// StopConverged marks a point whose joint relative CI width reached
	// the target.
	StopConverged = "converged"
	// StopMaxShots marks a point that hit AdaptiveConfig.MaxShots without
	// converging.
	StopMaxShots = "max-shots"
	// StopExhausted marks a point abandoned because the campaign's shot
	// pool ran dry.
	StopExhausted = "exhausted"
	// StopInfeasible marks a point whose policy had no plan solution; no
	// shots were run.
	StopInfeasible = "infeasible"
)

// EstimatorMC is the Record.Estimator value of every feasible point:
// plain Monte Carlo counting with Wilson intervals.
const EstimatorMC = "mc"

// stopZ is the normal quantile of the stopping rule's interval (~95%),
// the same z the record's interval columns use.
const stopZ = 1.96

// firstCheckpoint is the ladder's base: every feasible point runs one
// shard before any stopping decision.
const firstCheckpoint = mc.ShardShots

// AdaptiveConfig tunes the sequential allocator. The zero value of each
// field selects the documented default.
type AdaptiveConfig struct {
	// TargetRCI is the convergence target: a point stops once the
	// relative width (high-low)/estimate of its joint-observable CI
	// drops to this value (default 0.2). An estimate of zero counts as
	// unconverged.
	TargetRCI float64
	// MaxShots caps any single point's grant (default 1<<20). The cap is
	// aligned down to mc.ShardShots.
	MaxShots int
}

// WithDefaults resolves zero fields to the documented defaults.
func (a AdaptiveConfig) WithDefaults() AdaptiveConfig {
	if a.TargetRCI == 0 {
		a.TargetRCI = 0.2
	}
	if a.MaxShots == 0 {
		a.MaxShots = 1 << 20
	}
	return a
}

func alignUpShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + mc.ShardShots - 1) / mc.ShardShots * mc.ShardShots
}

func alignDownShards(n int) int {
	if n <= 0 {
		return 0
	}
	return n / mc.ShardShots * mc.ShardShots
}

// maxCheckpoint is MaxShots aligned down to a shard (at least one).
func (a AdaptiveConfig) maxCheckpoint() int {
	m := alignDownShards(a.MaxShots)
	if m == 0 {
		m = mc.ShardShots
	}
	return m
}

// nextCheckpoint advances the canonical ladder: 5/4 growth aligned up
// to a shard (so consecutive checkpoints differ by at least one shard),
// capped at maxCheckpoint. Decisions are evaluated only at ladder
// values, which is what makes grants independent of the worker count;
// the modest growth factor caps budget overshoot past the point where a
// coarser doubling ladder would stop at ~25%.
func (a AdaptiveConfig) nextCheckpoint(c int) int {
	n := alignUpShards(c + c/4)
	if n <= c {
		n = c + mc.ShardShots
	}
	if m := a.maxCheckpoint(); n > m {
		n = m
	}
	return n
}

// pointRunner is one point's execution state, the one executor of
// every record: ExecutePoint advances it once to a fixed budget, and
// the allocator advances it checkpoint by checkpoint.
type pointRunner struct {
	rec Record
	// pl is a shallow copy of the cached pipeline with this run's
	// worker count; nil for infeasible points.
	pl      *mc.Pipeline
	granted int
	tally   mc.LERResult
	ci      stats.CI // joint CI at the last checkpoint
	stopped bool
	reason  string
	started time.Time
}

// relCI is the scheduler's priority: wider is needier, +Inf when the
// estimate is still zero.
func (r *pointRunner) relCI() float64 { return r.ci.RelWidth() }

// advance runs shots [granted, to) and merges them into the
// accumulated tally exactly as a single run of the full range would,
// then re-evaluates the joint CI. RunFrom observes cancellation once per
// shard; a canceled tally is partial, and the caller discards every
// record. ShotProgress observes (point-cumulative shots, current
// checkpoint target): the total grows monotonically as the allocator
// grants more, which is the contract progress consumers rely on.
func (r *pointRunner) advance(to int, cfg Config) {
	base := r.granted
	pl := *r.pl
	if sp := cfg.ShotProgress; sp != nil {
		pl.Progress = func(done, _ int) { sp(base+done, to) }
	}
	r.tally.Merge(pl.RunFrom(base, to, r.rec.Seed))
	r.granted = to
	joint := stats.Binomial{Successes: r.tally.Errors[surface.ObsJoint], Trials: r.tally.Shots}
	r.ci = joint.CI(stopZ)
}

// stop marks the runner finished; converged wins over the caller's
// reason when the target was in fact reached.
func (r *pointRunner) stop(reason string, acfg AdaptiveConfig) {
	r.stopped = true
	if r.relCI() <= acfg.TargetRCI {
		reason = StopConverged
	}
	r.reason = reason
}

// finalize fills the record from the accumulated statistics. A
// feasible point's Shots and ShotsGranted both report the shots
// actually run: every statistic is a function of the granted budget,
// and a fixed rerun of the same grant reproduces it bit-for-bit. An
// infeasible point keeps the Shots newPointRunner gave it.
func (r *pointRunner) finalize() Record {
	rec := r.rec
	rec.ShotsGranted = r.granted
	rec.StopReason = r.reason
	if rec.Feasible {
		rec.Shots = r.granted
		rec.Estimator = EstimatorMC
		rec.fillStats(r.tally)
	}
	rec.WallMs = float64(time.Since(r.started)) / float64(time.Millisecond)
	return rec
}

// newPointRunner resolves one point and prepares its execution state
// (infeasible points come back already stopped). The record starts with
// the point's coordinates and derived seed; its Shots is the configured
// budget under a fixed budget, which an infeasible point keeps, and 0
// under an adaptive one, where it becomes the grant.
func newPointRunner(cache *BuildCache, pt Point, cfg Config) (*pointRunner, error) {
	r := &pointRunner{started: time.Now(), rec: Record{
		Key:           pt.Key(),
		Policy:        pt.Policy.String(),
		D:             pt.D,
		TauNs:         pt.TauNs,
		P:             pt.P,
		Basis:         pt.Basis.String(),
		Hardware:      pt.HW.Name,
		CyclePNs:      pt.CyclePNs,
		CyclePPrimeNs: pt.CyclePPrimeNs,
		EpsNs:         pt.EpsNs,
		Seed:          pt.Seed(cfg.Seed),
	}}
	if cfg.Adaptive == nil {
		r.rec.Shots = cfg.Shots
	}
	spec, plan, ok := pt.Resolve()
	r.rec.Feasible = ok
	if !ok {
		r.stopped = true
		r.reason = StopInfeasible
		return r, nil
	}
	r.rec.ExtraRoundsP = plan.ExtraRoundsP
	r.rec.ExtraRoundsPPrime = plan.ExtraRoundsPPrime
	r.rec.TotalIdleNs = plan.TotalIdleNs()
	cached, _, err := cache.Get(spec)
	if err != nil {
		return nil, err
	}
	// Run on a shallow copy so the shared cached Pipeline is never
	// mutated: campaigns with different worker counts can share a
	// cache concurrently.
	pl := *cached
	pl.Workers = cfg.Workers
	pl.Progress = nil
	pl.Ctx = cfg.Ctx
	pl.Metrics = cfg.Metrics
	r.pl = &pl
	return r, nil
}

// allocate is the sequential allocator shared by adaptive campaigns and
// single-point adaptive execution. budget is the total shot pool; every
// feasible runner is primed to the first checkpoint (the pool may
// overdraw there — no point is left without statistics), then the
// widest-relative-CI point is repeatedly advanced to its next ladder
// checkpoint until all runners stop.
func allocate(runners []*pointRunner, budget int, cfg Config, acfg AdaptiveConfig) {
	for _, r := range runners {
		if ctxErr(cfg.Ctx) != nil {
			return
		}
		if r.stopped {
			continue
		}
		budget -= firstCheckpoint
		r.advance(firstCheckpoint, cfg)
		if r.relCI() <= acfg.TargetRCI {
			r.stop(StopConverged, acfg)
		} else if r.granted >= acfg.maxCheckpoint() {
			r.stop(StopMaxShots, acfg)
		}
	}
	for {
		if ctxErr(cfg.Ctx) != nil {
			return
		}
		// Widest relative CI first; ties break to canonical grid order
		// (runners are scanned in it).
		var best *pointRunner
		for _, r := range runners {
			if r.stopped {
				continue
			}
			if best == nil || r.relCI() > best.relCI() {
				best = r
			}
		}
		if best == nil {
			return
		}
		next := acfg.nextCheckpoint(best.granted)
		cost := next - best.granted
		exhausted := false
		if cost > budget {
			partial := alignDownShards(budget)
			if partial <= 0 {
				// Pool dry: every still-active point keeps what it has.
				for _, r := range runners {
					if !r.stopped {
						r.stop(StopExhausted, acfg)
					}
				}
				return
			}
			next = best.granted + partial
			cost = partial
			exhausted = true
		}
		budget -= cost
		best.advance(next, cfg)
		switch {
		case best.relCI() <= acfg.TargetRCI:
			best.stop(StopConverged, acfg)
		case best.granted >= acfg.maxCheckpoint():
			best.stop(StopMaxShots, acfg)
		case exhausted:
			best.stop(StopExhausted, acfg)
		}
	}
}

// runAdaptive is Campaign.Run's adaptive mode: resolve every point,
// pool the budget over the whole grid, allocate, then emit the records
// in canonical order as Run does. Buffering until allocation finishes
// is what lets the pool flow across points while the output stays in
// canonical order.
//
// A resumed campaign re-runs the whole allocation: every grant depends
// on the pool and on every other point's interval, so only the full
// grid reproduces the uninterrupted run's grants. Points the manifest
// already holds are recomputed bit for bit and dropped rather than
// emitted again (they count as skipped); a campaign with every point
// journaled runs nothing.
func (c *Campaign) runAdaptive(pts []Point, cfg Config, acfg AdaptiveConfig, cache *BuildCache) (Summary, error) {
	sum := Summary{Points: len(pts)}
	journaled := make([]bool, len(pts))
	for i, pt := range pts {
		if c.Manifest != nil && c.Manifest.Done(pt.Key()) {
			journaled[i] = true
			sum.Skipped++
		}
	}
	if sum.Skipped == len(pts) {
		return sum, nil
	}
	runners := make([]*pointRunner, len(pts))
	feasible := 0
	for i, pt := range pts {
		r, err := newPointRunner(cache, pt, cfg)
		if err != nil {
			return sum, fmt.Errorf("sweep: point %s: %w", pt.Key(), err)
		}
		if r.rec.Feasible {
			feasible++
		}
		runners[i] = r
	}
	allocate(runners, cfg.Shots*feasible, cfg, acfg)
	if err := ctxErr(cfg.Ctx); err != nil {
		// Canceled mid-allocation: tallies may be partial, so no record
		// is emitted or journaled.
		return sum, err
	}
	for i, r := range runners {
		if journaled[i] {
			continue
		}
		if err := c.emit(&sum, r.finalize(), i+1, len(pts)); err != nil {
			return sum, err
		}
	}
	return sum, nil
}
