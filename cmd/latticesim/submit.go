package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// runSubmit implements `latticesim submit sweep|trace`: build a job
// spec from flags, submit it to a running server, follow progress, and
// print the result JSON to stdout (status lines go to stderr, so the
// result can be piped or diffed byte-for-byte).
func runSubmit(args []string) error {
	usage := func(out *os.File) {
		fmt.Fprintln(out, `usage: latticesim submit sweep    [flags]   submit one sweep point
       latticesim submit trace    [flags]   submit a trace simulation
       latticesim submit campaign [flags]   submit a whole sweep grid
       latticesim submit -cancel <job-id>   cancel a queued or running job

Submits a job to a running `+"`latticesim serve`"+` instance, waits for it,
and writes the result JSON to stdout. The status line on stderr reports
the job id, the result's content address, and whether the submission was
served from the server's result cache. Identical submissions always
yield byte-identical result JSON.

-retry retries transient failures (connection errors, queue-full 503s,
dropped watch streams) with jittered exponential backoff; submission is
idempotent, so retrying never runs a job twice. -timeout bounds each
execution attempt's wall time. Use -help on either form for flags.`)
	}
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing job kind")
	}
	switch args[0] {
	case "sweep":
		return submitSweep(args[1:])
	case "trace":
		return submitTrace(args[1:])
	case "campaign":
		return submitCampaign(args[1:])
	case "-h", "-help", "--help":
		usage(os.Stdout)
		return nil
	}
	if args[0][0] == '-' {
		// Bare flags without a job kind: the cancel form.
		return submitCancel(args)
	}
	usage(os.Stderr)
	return fmt.Errorf("unknown job kind %q (sweep, trace or campaign)", args[0])
}

// submitCommon holds the flags shared by both job kinds.
type submitCommon struct {
	server  *string
	wait    *bool
	quiet   *bool
	retry   *bool
	timeout *time.Duration
}

func addCommon(fs *flag.FlagSet) submitCommon {
	return submitCommon{
		server:  fs.String("server", "http://127.0.0.1:8642", "server base URL"),
		wait:    fs.Bool("wait", true, "wait for the job and print its result JSON to stdout"),
		quiet:   fs.Bool("quiet", false, "suppress the status line on stderr"),
		retry:   fs.Bool("retry", false, "retry transient failures (transport errors, queue-full 503s, rate-limiting 429s, dropped watch streams) with jittered exponential backoff"),
		timeout: fs.Duration("timeout", 0, "per-attempt wall-time bound for this job; exceeding it fails the job with stop reason \"timeout\" (0 = server default)"),
	}
}

// client builds the API client, with retries when -retry is set.
func (c submitCommon) client() *service.Client {
	client := service.NewClient(*c.server)
	if *c.retry {
		client.Retry = service.DefaultRetryPolicy()
	}
	return client
}

// run submits the spec and handles the wait/print cycle.
func (c submitCommon) run(spec service.JobSpec) error {
	client := c.client()
	if *c.timeout > 0 {
		spec.TimeoutMs = c.timeout.Milliseconds()
	}
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		return err
	}
	return c.await(client, st)
}

// await follows a submitted job to its terminal state and prints the
// result JSON (shared by every submission form).
func (c submitCommon) await(client *service.Client, st service.JobStatus) error {
	ctx := context.Background()
	var err error
	if !*c.quiet {
		fmt.Fprintf(os.Stderr, "submitted %s state=%s cache_hit=%v key=%s\n",
			st.ID, st.State, st.CacheHit, st.Key)
	}
	if !*c.wait {
		return nil
	}
	if !st.Terminal() {
		last := -1
		st, err = client.Watch(ctx, st.ID, func(s service.JobStatus) {
			if !*c.quiet && s.Progress.Total > 0 && s.Progress.Done != last {
				last = s.Progress.Done
				fmt.Fprintf(os.Stderr, "  %s %d/%d %s\n", s.ID, s.Progress.Done, s.Progress.Total, s.Progress.Unit)
			}
		})
		if err != nil {
			return err
		}
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	data, err := client.Result(ctx, st.Key)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	if len(data) > 0 && data[len(data)-1] != '\n' {
		os.Stdout.WriteString("\n")
	}
	return nil
}

// submitCancel implements `latticesim submit -cancel <job-id>`:
// cancellation is idempotent, so re-running the command (or running it
// against an already-finished job) just reports the final state.
func submitCancel(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	common := addCommon(fs)
	cancelID := fs.String("cancel", "", "job id to cancel instead of submitting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cancelID == "" {
		return fmt.Errorf("missing job kind (sweep or trace) or -cancel <job-id>")
	}
	st, err := common.client().Cancel(context.Background(), *cancelID)
	if err != nil {
		return err
	}
	if !*common.quiet {
		fmt.Fprintf(os.Stderr, "canceled %s state=%s stop_reason=%s\n", st.ID, st.State, st.StopReason)
	}
	return nil
}

func submitSweep(args []string) error {
	fs := flag.NewFlagSet("submit sweep", flag.ExitOnError)
	common := addCommon(fs)
	var (
		hw     = fs.String("hw", "IBM", "hardware profile (IBM, Google, QuEra, IBM-Sherbrooke)")
		scale  = fs.Float64("scale", 0, "scale the profile so its cycle equals this many ns (0 = native)")
		policy = fs.String("policy", "Passive", "synchronization policy")
		d      = fs.Int("d", 3, "code distance (odd, ≥ 3)")
		tau    = fs.Float64("tau", 1000, "synchronization slack in ns")
		p      = fs.Float64("p", 1e-3, "physical error rate")
		basis  = fs.String("basis", "X", "merge basis (X or Z)")
		cp     = fs.Float64("cyclep", 0, "patch P cycle in ns (0 = hardware base cycle)")
		cpp    = fs.Float64("cyclepp", 0, "patch P' cycle in ns (0 = hardware base cycle)")
		eps    = fs.Int64("eps", 0, "Hybrid residual-slack tolerance in ns")
		shots  = fs.Int("shots", 0, "Monte Carlo shots (0 = 40000)")
		seed   = fs.Uint64("seed", 0, "campaign seed (0 = default)")

		adaptive = fs.Bool("adaptive", false, "adaptive shot allocation: -shots becomes the budget pool, the run stops at the target CI width (see EXPERIMENTS.md §12)")
		tgtRCI   = fs.Float64("target-rci", 0, "adaptive convergence target: relative joint-CI width (0 = 0.2; implies -adaptive)")
		maxShots = fs.Int("max-shots", 0, "adaptive shot cap (0 = 1048576; implies -adaptive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return common.run(service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{
		Hardware: *hw, ScaleNs: *scale, Policy: *policy, D: *d, TauNs: *tau,
		P: *p, Basis: *basis, CyclePNs: *cp, CyclePPrimeNs: *cpp,
		EpsNs: *eps, Shots: *shots, Seed: *seed,
		Adaptive: *adaptive, TargetRCI: *tgtRCI, MaxShots: *maxShots,
	}})
}

func submitTrace(args []string) error {
	fs := flag.NewFlagSet("submit trace", flag.ExitOnError)
	common := addCommon(fs)
	var (
		in       = fs.String("in", "", "trace file to submit (overrides -workload)")
		workload = fs.String("workload", "factory", "generated workload family: factory, random, ensemble")
		patches  = fs.Int("patches", 8, "patch count for generated workloads")
		merges   = fs.Int("merges", 16, "merge count for generated workloads")
		policies = fs.String("policies", "Ideal,Passive,Active,Active-intra,ExtraRounds,Hybrid",
			"comma-separated policies to compare")
		hw      = fs.String("hw", "IBM", "hardware profile (IBM, Google, QuEra, IBM-Sherbrooke)")
		scale   = fs.Float64("scale", 1000, "scale the profile so its cycle equals this many ns (0 = native)")
		d       = fs.Int("d", 3, "code distance (odd, ≥ 3)")
		p       = fs.Float64("p", 1e-3, "physical error rate")
		basis   = fs.String("basis", "X", "merge basis (X or Z)")
		eps     = fs.Int64("eps", 400, "Hybrid residual-slack tolerance in ns")
		maxZ    = fs.Int("maxz", 5, "Hybrid extra-round bound")
		stagger = fs.Int64("stagger", 135, "initial phase stagger between patches in ns (0 = none)")
		shots   = fs.Int("shots", 0, "Monte Carlo shots per merge pair (0 = 4096)")
		seed    = fs.Uint64("seed", 0, "campaign seed (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Explicit zeros mean "native" / "none" on these flags — the same
	// semantics as `latticesim trace` — but zero in the job spec selects
	// the spec-level defaults, so map user-given zeros to the spec's
	// negative sentinels.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			if *scale == 0 {
				*scale = -1
			}
		case "stagger":
			if *stagger == 0 {
				*stagger = -1
			}
		}
	})
	text := ""
	if *in != "" {
		b, err := os.ReadFile(*in)
		if err != nil {
			return err
		}
		text = string(b)
	}
	return common.run(service.JobSpec{Type: "trace", Trace: &service.TraceJob{
		TraceText: text, Workload: *workload, Patches: *patches, Merges: *merges,
		Policies: sweep.SplitList(*policies), Hardware: *hw, ScaleNs: *scale,
		D: *d, P: *p, Basis: *basis, EpsNs: *eps, MaxZ: *maxZ,
		StaggerNs: *stagger, Shots: *shots, Seed: *seed,
	}})
}

// submitCampaign submits a whole sweep grid through the campaign
// resource (POST /v1/campaigns): the coordinator cuts it into batch
// work units, its in-process nodes and any `latticesim worker` nodes
// execute them, and the printed aggregate is byte-identical to running
// `latticesim sweep -json` over the same grid locally.
func submitCampaign(args []string) error {
	fs := flag.NewFlagSet("submit campaign", flag.ExitOnError)
	common := addCommon(fs)
	var (
		hw       = fs.String("hw", "IBM", "hardware profile (IBM, Google, QuEra, IBM-Sherbrooke)")
		scale    = fs.Float64("scale", 0, "scale the profile so its cycle equals this many ns (0 = native; the paper's §7.3 grids use -scale 1000)")
		policies = fs.String("policies", "Passive,Active", "comma-separated policies (Ideal, Passive, Active, Active-intra, ExtraRounds, Hybrid)")
		ds       = fs.String("d", "3", "comma-separated odd code distances")
		taus     = fs.String("tau", "1000", "comma-separated synchronization slacks in ns")
		ps       = fs.String("p", "1e-3", "comma-separated physical error rates")
		bases    = fs.String("basis", "X", "comma-separated merge bases (X, Z)")
		cycleP   = fs.Float64("cyclep", 0, "patch P cycle time in ns (0 = hardware base cycle)")
		cyclePPs = fs.String("cyclepp", "0", "comma-separated patch P' cycle times in ns (0 = hardware base cycle)")
		eps      = fs.Int64("eps", 0, "Hybrid residual-slack tolerance in ns")
		shots    = fs.Int("shots", 0, "shots per point (0 = 40000)")
		seed     = fs.Uint64("seed", 0, "campaign seed; point seeds derive from it (0 = default)")
		batchPts = fs.Int("batch-points", 0, "grid points per leased work unit (0 = 16); shapes scheduling only, never result bytes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := common.client()
	st, err := client.SubmitCampaign(context.Background(), service.CampaignJob{
		Hardware: *hw, ScaleNs: *scale, Policies: *policies, Distances: *ds,
		TausNs: *taus, ErrorRates: *ps, Bases: *bases, CyclePNs: *cycleP,
		CyclePPrimeNs: *cyclePPs, EpsNs: *eps, Shots: *shots, Seed: *seed,
		BatchPoints: *batchPts,
	})
	if err != nil {
		return err
	}
	return common.await(client, st)
}
