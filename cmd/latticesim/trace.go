package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"latticesim/internal/core"
	"latticesim/internal/exp"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// runTrace implements the `latticesim trace` subcommand: load or
// generate a lattice-surgery program, simulate it under each requested
// policy with one shared build cache, and print deterministic per-policy
// summary lines plus optional per-patch breakdowns.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: latticesim trace [flags]

Simulates a multi-patch lattice-surgery program (a trace of MERGE and
IDLE operations) under one or more synchronization policies, reporting
per-policy total runtime, idle/extra-round breakdowns and the Monte
Carlo program logical error rate. Traces come from a file (-in, see
EXPERIMENTS.md §10 for the format) or a built-in workload family
(-workload factory|random|ensemble). Output is deterministic for a
fixed seed, independent of -workers.

With -json, one trace.ResultSet JSON line per (d, p) grid cell — the
same machine-readable schema the simulation service returns for trace
jobs — is streamed to stdout, and all human-readable output moves to
stderr, so CLI and API outputs are interchangeable. The JSON carries no
source label, so its bytes do not depend on the path naming the trace.

Flags:`)
		fs.PrintDefaults()
	}
	var (
		in       = fs.String("in", "", "trace file to simulate (overrides -workload)")
		workload = fs.String("workload", "factory", "generated workload family: factory, random, ensemble")
		patches  = fs.Int("patches", 8, "patch count for generated workloads (factory: 1 consumer + patches-1 producers)")
		merges   = fs.Int("merges", 16, "merge count for random/ensemble workloads; factory batches = merges/(patches-1)")
		policies = fs.String("policies", "Ideal,Passive,Active,Active-intra,ExtraRounds,Hybrid",
			"comma-separated policies to compare")
		hwName  = fs.String("hw", "IBM", "hardware profile (IBM, Google, QuEra, IBM-Sherbrooke)")
		scale   = fs.Float64("scale", 1000, "scale the profile so its cycle equals this many ns (0 = native; default matches the paper's §7.3 T_P=1000ns)")
		ds      = fs.String("d", "3", "comma-separated odd code distances (a sweep axis)")
		ps      = fs.String("p", "1e-3", "comma-separated physical error rates (a sweep axis)")
		basis   = fs.String("basis", "X", "merge basis (X or Z)")
		eps     = fs.Int64("eps", 400, "Hybrid residual-slack tolerance in ns (Table 2)")
		maxZ    = fs.Int("maxz", 5, "Hybrid extra-round bound")
		stagger = fs.Int64("stagger", 135, "initial phase stagger between patches in ns (0 = none; keep it commensurate with the cycle-time gcd or Extra Rounds always falls back)")
		env     = exp.OptionsFromEnv()
		shots   = fs.Int("shots", 0, "Monte Carlo shots per merge pair (0 = 4096; LATTICESIM_SHOTS sets the default)")
		seed    = fs.Uint64("seed", env.Seed, "campaign seed; merge-event seeds derive from it (0 = default)")
		workers = fs.Int("workers", env.Workers, "CPUs the simulation uses: merge seams run concurrently, and each seam's shard pool gets the share the seam pool cannot use (0 = GOMAXPROCS; results are worker-count independent)")
		dump    = fs.Bool("dump", false, "print the trace text before simulating (to save a generated workload)")
		jsonOut = fs.Bool("json", false, "stream one ResultSet JSON line per (d, p) cell to stdout (the service result schema)")
		verbose = fs.Bool("v", false, "print per-patch breakdowns")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shots == 0 && env.Shots != 0 {
		*shots = env.Shots
	}
	// An explicit `-stagger 0` means "no stagger"; map it to the config
	// layer's negative sentinel (where 0 selects the default).
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "stagger" && *stagger == 0 {
			*stagger = -1
		}
	})

	hw, ok := hardware.ByName(*hwName)
	if !ok {
		return fmt.Errorf("unknown hardware profile %q (IBM, Google, QuEra, IBM-Sherbrooke)", *hwName)
	}
	if *scale > 0 {
		hw = hw.Scaled(*scale)
	}
	bs, err := surface.ParseBasis(*basis)
	if err != nil {
		return err
	}
	var pols []core.Policy
	for _, s := range sweep.SplitList(*policies) {
		pol, ok := core.ParsePolicy(s)
		if !ok {
			return fmt.Errorf("unknown policy %q (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)", s)
		}
		pols = append(pols, pol)
	}
	if len(pols) == 0 {
		return fmt.Errorf("-policies selected nothing")
	}
	dList, err := sweep.ParseIntList(*ds)
	if err != nil {
		return fmt.Errorf("-d: %w", err)
	}
	pList, err := sweep.ParseFloatList(*ps)
	if err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if len(dList) == 0 || len(pList) == 0 {
		return fmt.Errorf("-d and -p need at least one value each")
	}

	// The whole {policy × d × p} grid shares one build cache, so merge
	// circuits repeated across points are built once (the same dedup
	// discipline as sweep campaigns).
	base := trace.Config{
		HW: hw, Basis: bs, EpsNs: *eps, MaxZ: *maxZ,
		Shots: *shots, Seed: *seed, Workers: *workers, StaggerNs: *stagger,
		Cache: sweep.NewBuildCache(),
	}.WithDefaults()

	prog, source, err := loadTrace(*in, *workload, *patches, *merges, hw.CycleNs(), base.Seed)
	if err != nil {
		return err
	}
	// With -json, stdout carries ResultSet lines only; everything human
	// moves to stderr.
	logw := io.Writer(os.Stdout)
	if *jsonOut {
		logw = os.Stderr
	}
	if *dump {
		io.WriteString(logw, prog.Text())
	}
	fmt.Fprintf(logw, "trace: %s: %d patches, %d ops (%d merges), hw=%s cycle=%.6gns basis=%s shots=%d seed=%#x\n",
		source, len(prog.Patches), len(prog.Ops), prog.Merges(),
		hw.Name, hw.CycleNs(), *basis, base.Shots, base.Seed)

	jsonEnc := json.NewEncoder(os.Stdout)
	start := time.Now()
	for _, dv := range dList {
		for _, pv := range pList {
			cfg := base
			cfg.D = dv
			cfg.P = pv
			results, err := trace.SimulateAll(prog, pols, cfg)
			if err != nil {
				return err
			}
			if *jsonOut {
				// No source label: like the service's trace jobs, the
				// bytes must not depend on the path naming the trace.
				if err := jsonEnc.Encode(trace.NewResultSet(prog, cfg, "", results)); err != nil {
					return err
				}
				continue
			}
			for _, r := range results {
				fmt.Printf("policy=%-12s d=%d p=%g runtime_ns=%.0f sync_idle_ns=%.0f skew_wait_ns=%.0f extra_rounds=%d idle_rounds=%d fallback_pairs=%d program_ler=%.6g\n",
					r.Policy, dv, pv, r.RuntimeNs, r.SyncIdleNs, r.SkewWaitNs,
					r.ExtraRounds, r.IdleRounds, r.FallbackPairs, r.ProgramLER)
				if *verbose {
					for _, ps := range r.PerPatch {
						fmt.Printf("  patch=%-8s cycle_ns=%g merges=%d sync_idle_ns=%.0f extra_rounds=%d idle_rounds=%d\n",
							ps.Name, ps.CycleNs, ps.Merges, ps.SyncIdleNs, ps.ExtraRounds, ps.IdleRounds)
					}
				}
			}
		}
	}
	fmt.Fprintf(logw, "[trace done in %v, %s]\n",
		time.Since(start).Round(time.Millisecond), cacheSummary(base.Cache))
	return nil
}

// loadTrace resolves the program source: a trace file when -in is given,
// otherwise a generated workload family.
func loadTrace(in, workload string, patches, merges int, baseCycleNs float64, seed uint64) (*trace.Program, string, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		prog, err := trace.Parse(f)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", in, err)
		}
		return prog, in, nil
	}
	prog, err := trace.Generate(workload, patches, merges, baseCycleNs, seed)
	if err != nil {
		return nil, "", err
	}
	return prog, workload + " workload", nil
}
