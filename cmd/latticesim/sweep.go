package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"latticesim/internal/exp"
	"latticesim/internal/sweep"
)

// runSweep implements the `latticesim sweep` subcommand: parse the grid,
// open (or resume) the output directory, and stream records.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: latticesim sweep [flags] -out DIR
       latticesim sweep [flags] -json

Expands a policy grid, runs every point through the cached build pipeline,
and streams results to DIR/results.jsonl, DIR/results.csv and DIR/manifest.
Rerunning with the same flags resumes an interrupted campaign: points in
the manifest are skipped. See EXPERIMENTS.md for the record schema.

With -json, canonical record lines (wall_ms zeroed — the byte-comparable
form, exactly what the simulation service stores for the same point) are
streamed to stdout and all progress goes to stderr; -out becomes
optional. CLI and API outputs are interchangeable.

Flags:`)
		fs.PrintDefaults()
	}
	var (
		hwName   = fs.String("hw", "IBM", "hardware profile (IBM, Google, QuEra, IBM-Sherbrooke)")
		scale    = fs.Float64("scale", 0, "scale the profile so its cycle equals this many ns (0 = native; the paper's §7.3 grids use -scale 1000)")
		policies = fs.String("policies", "Passive,Active", "comma-separated policies (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)")
		ds       = fs.String("d", "3", "comma-separated odd code distances")
		taus     = fs.String("tau", "1000", "comma-separated synchronization slacks in ns")
		ps       = fs.String("p", "1e-3", "comma-separated physical error rates")
		bases    = fs.String("basis", "X", "comma-separated merge bases (X, Z)")
		cycleP   = fs.Float64("cyclep", 0, "patch P cycle time in ns (0 = hardware base cycle)")
		cyclePPs = fs.String("cyclepp", "0", "comma-separated patch P' cycle times in ns (0 = hardware base cycle)")
		env      = exp.OptionsFromEnv()
		eps      = fs.Int64("eps", 0, "Hybrid residual-slack tolerance in ns")
		shots    = fs.Int("shots", env.Shots, "shots per point (0 = 40000; LATTICESIM_SHOTS sets the default)")
		seed     = fs.Uint64("seed", env.Seed, "campaign seed; point seeds derive from it (0 = default; LATTICESIM_SEED sets the default)")
		workers  = fs.Int("workers", env.Workers, "Monte Carlo worker pool size per point (0 = GOMAXPROCS; LATTICESIM_WORKERS sets the default)")
		maxPts   = fs.Int("max-points", 0, "stop after this many executed points (0 = whole grid); rerun to resume")
		adaptive = fs.Bool("adaptive", false, "adaptive shot allocation: -shots becomes a per-point pool contribution, spent on the widest confidence intervals (see EXPERIMENTS.md §12)")
		tgtRCI   = fs.Float64("target-rci", 0, "adaptive convergence target: relative joint-CI width to stop a point at (0 = 0.2; implies -adaptive)")
		maxShots = fs.Int("max-shots", 0, "adaptive per-point shot cap (0 = 1048576; implies -adaptive)")
		out      = fs.String("out", "", "output directory (required unless -json)")
		jsonOut  = fs.Bool("json", false, "stream canonical record JSON lines to stdout (the service result schema)")
		quiet    = fs.Bool("quiet", false, "suppress per-point progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && !*jsonOut {
		fs.Usage()
		return fmt.Errorf("-out is required (or use -json)")
	}
	// With -json, stdout carries records only; human output moves to
	// stderr so the stream stays machine-readable.
	logw := io.Writer(os.Stdout)
	if *jsonOut {
		logw = os.Stderr
	}

	grid, err := sweep.ParseGridSpec(sweep.GridSpec{
		Hardware:      *hwName,
		ScaleNs:       *scale,
		Policies:      *policies,
		Distances:     *ds,
		TausNs:        *taus,
		ErrorRates:    *ps,
		Bases:         *bases,
		CyclePNs:      *cycleP,
		CyclePPrimeNs: *cyclePPs,
		EpsNs:         *eps,
	})
	if err != nil {
		return err
	}
	pts, err := grid.Points()
	if err != nil {
		return err
	}

	// Resolve defaults once so the manifest header pins exactly what the
	// campaign will execute.
	cfg := sweep.Config{Shots: *shots, Seed: *seed, Workers: *workers, MaxPoints: *maxPts}.WithDefaults()
	if *adaptive || *tgtRCI > 0 || *maxShots > 0 {
		cfg.Adaptive = &sweep.AdaptiveConfig{TargetRCI: *tgtRCI, MaxShots: *maxShots}
	}

	var sinks []sweep.Sink
	var manifest *sweep.Manifest
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		manifest, err = sweep.OpenManifest(filepath.Join(*out, "manifest"), cfg, pts)
		if err != nil {
			return err
		}
		defer manifest.Close()

		jsonlPath := filepath.Join(*out, "results.jsonl")
		csvPath := filepath.Join(*out, "results.csv")
		jsonlFile, err := os.OpenFile(jsonlPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer jsonlFile.Close()
		csvFile, err := os.OpenFile(csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer csvFile.Close()
		csvInfo, err := csvFile.Stat()
		if err != nil {
			return err
		}
		csvw := sweep.NewCSVWriter(csvFile)
		if csvInfo.Size() == 0 {
			if err := csvw.WriteHeader(); err != nil {
				return err
			}
		}
		sinks = append(sinks, &sweep.JSONLWriter{W: jsonlFile}, csvw)
	}
	if *jsonOut {
		sinks = append(sinks, canonicalJSONSink{w: os.Stdout})
	}

	if !*quiet {
		done := 0
		if manifest != nil {
			done = manifest.NumDone()
		}
		dest := *out
		if dest == "" {
			dest = "stdout"
		}
		budget := fmt.Sprintf("%d shots each", cfg.Shots)
		if cfg.Adaptive != nil {
			a := cfg.Adaptive.WithDefaults()
			budget = fmt.Sprintf("adaptive pool of %d shots/point (target rci %g)", cfg.Shots, a.TargetRCI)
		}
		fmt.Fprintf(logw, "sweep: %d points (%d already done), %s, seed %#x -> %s\n",
			len(pts), done, budget, cfg.Seed, dest)
		cfg.Progress = func(pos, total int, r sweep.Record) {
			status := fmt.Sprintf("joint=%.4g single=%.4g", r.JointRate, r.SingleRate)
			if !r.Feasible {
				status = "infeasible"
			}
			if r.StopReason != "" && r.StopReason != sweep.StopFixed && r.Feasible {
				status += fmt.Sprintf(" [%s @ %d shots]", r.StopReason, r.ShotsGranted)
			}
			fmt.Fprintf(logw, "  [%d/%d] %s: %s (%.0fms)\n", pos, total, r.Key, status, r.WallMs)
		}
	}

	start := time.Now()
	camp := &sweep.Campaign{
		Grid:     grid,
		Config:   cfg,
		Cache:    sweep.NewBuildCache(),
		Manifest: manifest,
		Sinks:    sinks,
	}
	sum, err := camp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "sweep: %d/%d points executed (%d skipped via manifest, %d infeasible), %s, %v\n",
		sum.Executed, sum.Points, sum.Skipped, sum.Infeasible,
		cacheSummary(camp.Cache), time.Since(start).Round(time.Millisecond))
	if sum.Interrupted {
		if manifest != nil {
			fmt.Fprintln(logw, "sweep: stopped at -max-points; rerun the same command to resume")
		} else {
			fmt.Fprintln(logw, "sweep: stopped at -max-points; without -out there is no manifest, so a rerun starts over")
		}
	}
	return nil
}

// cacheSummary renders a build cache's closing line for sweep and
// trace: builds count rebuilds after an eviction, and the size is the
// estimated heap the cache holds at the end.
func cacheSummary(c *sweep.BuildCache) string {
	hits, misses := c.Stats()
	bytes, evictions := c.Usage()
	return fmt.Sprintf("cache %d hits / %d builds / %d evictions, %.1f MiB",
		hits, misses, evictions, float64(bytes)/(1<<20))
}

// canonicalJSONSink streams each record's canonical JSON line (wall_ms
// zeroed) — the byte-comparable form the simulation service stores, so
// `latticesim sweep -json` output diffs cleanly against
// `latticesim submit sweep` output for the same point.
type canonicalJSONSink struct{ w io.Writer }

func (s canonicalJSONSink) Write(r sweep.Record) error {
	b, err := r.CanonicalJSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.w.Write(b)
	return err
}
