package exp

// Sweep presets. The parameter-sweep figures (Fig. 14/15/17/19, Tables
// 1/2/4) are thin wrappers over sweep.Grid campaigns: each runner
// declares its grid, collects the records through the process-wide
// artifact cache, and only formats the comparison the paper prints.
// Because the cache is shared, regenerating several figures in one
// invocation (`latticesim all`) builds each distinct circuit → DEM →
// decoder-graph artifact once, no matter how many figures reference it.

import (
	"latticesim/internal/core"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// presetCache deduplicates built pipelines across every preset runner in
// the process, within the BuildCache budget (64 MiB): a figure that
// comes back to a spec after the cache has evicted it rebuilds it, with
// the same bytes.
var presetCache = sweep.NewBuildCache()

// pointID locates a record inside a preset's grids by its swept
// coordinates. tpp is the resolved T_P′ (the hardware base cycle for
// equal-cycle grids).
type pointID struct {
	policy core.Policy
	d      int
	tau    float64
	basis  surface.Basis
	tpp    float64
}

// collectGrid executes the grid through the shared artifact cache and
// indexes the records by grid coordinates. Point seeds derive from
// (o.Seed, point key) — see sweep.Point.Seed — so each cell's statistics
// are independent of which other cells a figure sweeps.
func collectGrid(g sweep.Grid, o Options) (map[pointID]sweep.Record, error) {
	// Presets derive their distance axis from o.MaxD. An empty axis —
	// MaxD below 3, or a caller that bypassed the registry's Options
	// normalization — means the runner will print no data rows, so
	// simulate nothing rather than letting the grid's own defaults burn
	// Monte Carlo budget on points the figure never shows.
	if len(g.Distances) == 0 {
		return map[pointID]sweep.Record{}, nil
	}
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	recs, err := sweep.Collect(g, sweep.Config{Shots: o.Shots, Seed: o.Seed, Workers: o.Workers}, presetCache)
	if err != nil {
		return nil, err
	}
	out := make(map[pointID]sweep.Record, len(recs))
	for i, rec := range recs {
		pt := pts[i]
		out[pointID{pt.Policy, pt.D, pt.TauNs, pt.Basis, pt.CyclePPrimeNs}] = rec
	}
	return out, nil
}
