package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// traceConfig shapes the trace-factory8 workload: the bundled factory
// trace under all six policies with the `latticesim trace` defaults (IBM
// scaled to a 1000 ns cycle, 4096 shots per seam) on an MC pool of 2.
type traceConfig struct {
	Path       string // trace file, relative to the checkout root
	D          int
	Shots      int // shots per seam run
	Workers    int // Monte Carlo pool size
	ParseReps  int // set-up samples; setup_s is their median
	ParseBatch int // parses timed together in one set-up sample
}

var traceDefault = traceConfig{Path: "traces/factory8.trace", D: 5, Shots: 4096, Workers: 2, ParseReps: 61, ParseBatch: 64}

var allPolicies = []core.Policy{core.Ideal, core.Passive, core.Active, core.ActiveIntra, core.ExtraRounds, core.Hybrid}

// tracePass is one pass over the program under every policy.
type tracePass struct {
	json    []byte    // the trace.ResultSet the pass produced
	wall    float64   // seconds
	simS    []float64 // seconds per trace.Simulate call
	hits    int       // BuildCache hits and misses after the pass
	misses  int
	simErrs int
}

func (c traceConfig) run(plan runPlan, res *result) error {
	var prog *trace.Program
	for i := 0; i < c.ParseReps; i++ {
		start := time.Now()
		for j := 0; j < c.ParseBatch; j++ {
			data, err := os.ReadFile(c.Path)
			if err != nil {
				return err
			}
			if prog, err = trace.Parse(bytes.NewReader(data)); err != nil {
				return fmt.Errorf("%s: %w", c.Path, err)
			}
		}
		res.setup = append(res.setup, time.Since(start).Seconds()/float64(c.ParseBatch))
	}
	base := trace.Config{
		HW: hardware.IBM().Scaled(1000), D: c.D, P: 1e-3, Shots: c.Shots, Workers: c.Workers,
		Seed: sweep.DeriveSeed(plan.Seed, "e2ebench trace-factory8"),
	}.WithDefaults()
	seams := 0
	for _, op := range prog.Ops {
		if op.Kind == trace.OpMerge {
			seams += len(op.Patches) - 1
		}
	}

	var first []byte
	checkPass := func(p tracePass, label string) {
		if first == nil {
			first = p.json
		}
		res.check(p.simErrs == 0 && bytes.Equal(p.json, first), "trace-factory8: %s ResultSet differs from the first cold pass", label)
	}
	for p := 0; p < plan.Passes; p++ {
		cache := sweep.NewBuildCache()
		cold := c.pass(prog, base, cache, res, nil, "", 0)
		res.wall = append(res.wall, cold.wall)
		res.shots = append(res.shots, float64(len(allPolicies)*seams*c.Shots))
		res.ops = append(res.ops, float64(len(cold.simS)))
		res.latency = append(res.latency, cold.simS)
		res.retained = append(res.retained, retainedMB())
		checkPass(cold, fmt.Sprintf("cold pass %d", p))
		if p == 0 {
			// The warm pass reruns on the now-warm cache; its bytes must
			// match the cold pass's.
			checkPass(c.pass(prog, base, cache, res, nil, "", 0), "warm pass")
		}
		runtime.GC()
	}

	if plan.TracedPasses == 0 {
		return nil
	}
	tr := plan.Tracer
	var builds, warms []float64
	for p := 0; p < plan.TracedPasses; p++ {
		cache := sweep.NewBuildCache()
		id := fmt.Sprintf("pass-%d", p)
		root := tr.begin(id, 0, "pass")
		coldID := tr.begin(id, root, "pass.cold")
		cold := c.pass(prog, base, cache, res, tr, id, coldID)
		tr.end(coldID)
		warmID := tr.begin(id, root, "pass.warm")
		warm := c.pass(prog, base, cache, res, tr, id, warmID)
		tr.end(warmID)
		tr.end(root)
		res.tracedWall = append(res.tracedWall, cold.wall)
		builds = append(builds, cold.wall-warm.wall)
		warms = append(warms, warm.wall)
		checkPass(cold, fmt.Sprintf("traced cold pass %d", p))
		checkPass(warm, fmt.Sprintf("traced warm pass %d", p))
		res.layers["sweep.cache_misses"] = float64(cold.misses)
		res.layers["sweep.cache_hit_ratio"] = float64(cold.hits) / float64(cold.hits+cold.misses)
		runtime.GC()
	}
	res.layers["trace.build_s"] = median(builds)
	res.layers["trace.warm_s"] = median(warms)
	return nil
}

// pass simulates the program under every policy on one shared cache,
// one trace.Simulate call per policy (what trace.SimulateAll does). Each
// call is an operation: one policy's result line of `latticesim trace`.
func (c traceConfig) pass(prog *trace.Program, base trace.Config, cache *sweep.BuildCache, res *result, tr *tracer, traceID string, parent int) tracePass {
	var p tracePass
	cfg := base
	cfg.Cache = cache
	results := make([]*trace.Result, 0, len(allPolicies))
	start := time.Now()
	for _, pol := range allPolicies {
		id := tr.begin(traceID, parent, "trace.Simulate")
		t0 := time.Now()
		r, err := trace.Simulate(prog, pol, cfg)
		p.simS = append(p.simS, time.Since(t0).Seconds())
		tr.end(id)
		res.attempted++
		if err != nil {
			res.opFailed(err)
			p.simErrs++
			continue
		}
		results = append(results, r)
	}
	p.wall = time.Since(start).Seconds()
	p.hits, p.misses = cache.Stats()
	js, err := json.Marshal(trace.NewResultSet(prog, base, c.Path, results))
	if err != nil {
		p.simErrs++
	}
	p.json = js
	return p
}
