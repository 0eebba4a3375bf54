// Package microarch implements the control microarchitecture for runtime
// synchronization of Fig. 12: the patch counter table driven by a global
// clock, the patch metadata table holding per-patch cycle durations, the
// phase and slack calculators, and the synchronization engine that turns
// patch phase state into a policy schedule for the QEC controller.
//
// The engine is deliberately cycle-level rather than RTL: counters
// advance on Tick, tables are fixed-size arrays, and the planning path is
// the exact arithmetic a hardware implementation would perform. Fig. 20's
// right panel (planning time vs patch count) benchmarks PlanSync.
//
// Lifecycle: NewEngine allocates the tables, Register fills patch rows,
// Tick advances the global clock, and PlanSync turns the tracked phase
// state into a Schedule that VerifySchedule replays for exactness. The
// public facade re-exports Engine and Schedule; see DESIGN.md §2 for
// where the package sits in the architecture.
package microarch

import (
	"fmt"
	"sync"

	"latticesim/internal/core"
)

// CounterBits is the patch counter width. Surface code cycles are
// 1000–2000ns and the global clock is 1GHz, so 10–12 bits suffice to
// count ticks within a cycle (§5); we use 12.
const CounterBits = 12

const counterMask = (1 << CounterBits) - 1

// PatchEntry is one row of the combined counter + metadata tables.
type PatchEntry struct {
	Valid bool
	// CycleTicks is the patch's syndrome cycle duration in clock ticks
	// (metadata table, filled at compile time from calibration data).
	CycleTicks int64
	// Counter counts ticks within the current cycle (counter table).
	Counter int64
	// Rounds counts completed syndrome cycles.
	Rounds int64
}

// Engine is the synchronization engine plus its tables.
type Engine struct {
	mu      sync.Mutex
	clockNs int64 // ns per tick
	patches []PatchEntry
}

// NewEngine creates an engine with capacity patch slots and a 1ns tick
// (1GHz global clock).
func NewEngine(capacity int) *Engine {
	return &Engine{clockNs: 1, patches: make([]PatchEntry, capacity)}
}

// Register installs a patch with the given cycle duration and returns its
// patch ID, or an error if the table is full.
func (e *Engine) Register(cycleNs int64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cycleNs <= 0 {
		return 0, fmt.Errorf("microarch: cycle duration must be positive")
	}
	if cycleNs/e.clockNs > counterMask {
		return 0, fmt.Errorf("microarch: cycle %dns exceeds %d-bit counter range", cycleNs, CounterBits)
	}
	for i := range e.patches {
		if !e.patches[i].Valid {
			e.patches[i] = PatchEntry{Valid: true, CycleTicks: cycleNs / e.clockNs}
			return i, nil
		}
	}
	return 0, fmt.Errorf("microarch: patch counter table full (%d entries)", len(e.patches))
}

// Tick advances the global clock by n ticks; counters wrap at their
// patch's cycle duration, incrementing the round count.
func (e *Engine) Tick(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.patches {
		p := &e.patches[i]
		if !p.Valid {
			continue
		}
		p.Counter += n
		for p.Counter >= p.CycleTicks {
			p.Counter -= p.CycleTicks
			p.Rounds++
		}
	}
}

// Phase returns the elapsed ticks in patch id's current cycle (the phase
// calculator input).
func (e *Engine) Phase(id int) (int64, error) {
	st, err := e.State(id)
	if err != nil {
		return 0, err
	}
	return st.ElapsedNs / e.clockNs, nil
}

// State exports a patch's runtime state for the policy layer.
func (e *Engine) State(id int) (core.PatchState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || id >= len(e.patches) || !e.patches[id].Valid {
		return core.PatchState{}, fmt.Errorf("microarch: invalid patch id %d", id)
	}
	p := e.patches[id]
	return core.PatchState{
		ID:        id,
		CycleNs:   p.CycleTicks * e.clockNs,
		ElapsedNs: p.Counter * e.clockNs,
	}, nil
}

// Schedule is the synchronized schedule handed to the QEC controller.
type Schedule struct {
	// Reference is the patch all others synchronize with (the one
	// completing its current cycle last).
	Reference int
	Pairs     []core.PairPlan
}

// PlanSync runs the full Fig. 12 path for the given patches: read the
// counter and metadata tables, compute phases and pairwise slacks against
// the slowest patch, and emit the policy schedule. Policy selection
// follows §5 (fall back to Active when Extra Rounds/Hybrid are
// infeasible for a pair).
func (e *Engine) PlanSync(ids []int, policy core.Policy, epsNs int64, maxZ int) (Schedule, error) {
	states := make([]core.PatchState, 0, len(ids))
	for _, id := range ids {
		st, err := e.State(id)
		if err != nil {
			return Schedule{}, err
		}
		states = append(states, st)
	}
	pairs := core.SynchronizeK(states, policy, epsNs, maxZ)
	sched := Schedule{Pairs: pairs}
	if len(pairs) > 0 {
		sched.Reference = pairs[0].Late
	}
	return sched, nil
}

// VerifySchedule checks every pairwise plan for exact alignment at the
// merge point and returns the worst residual misalignment in ns (0 for a
// correct schedule; Hybrid pairs return 0 because the residual is
// explicitly idled away).
func (e *Engine) VerifySchedule(sched Schedule) (int64, error) {
	var worst int64
	for _, pp := range sched.Pairs {
		early, err := e.State(pp.Early)
		if err != nil {
			return 0, err
		}
		late, err := e.State(pp.Late)
		if err != nil {
			return 0, err
		}
		if d := pp.AlignedNs(early.CycleNs, late.CycleNs); d > worst {
			worst = d
		}
	}
	return worst, nil
}
