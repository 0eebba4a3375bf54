// Package exp contains the experiment harness: one runner per table and
// figure of the paper's evaluation (§7), built on the Monte Carlo
// execution layer of internal/mc and, for the parameter-sweep figures,
// expressed as thin presets over internal/sweep campaign grids.
package exp

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// Options scales experiments to the available compute. The paper used
// 128 cores for days and up to 100M shots; defaults here target minutes
// on one core while preserving every trend (see EXPERIMENTS.md).
type Options struct {
	// Shots per simulated configuration (default 40000).
	Shots int
	// MaxD bounds the code-distance sweeps (default 7; the paper uses 15).
	MaxD int
	// Seed is the base RNG seed.
	Seed uint64
	// Workers is the Monte Carlo worker-pool size (default
	// runtime.GOMAXPROCS(0)). Results are bit-identical for every value; see
	// Pipeline.Workers.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Shots == 0 {
		o.Shots = 40000
	}
	if o.MaxD == 0 {
		o.MaxD = 7
	}
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	return o
}

// OptionsFromEnv reads LATTICESIM_SHOTS, LATTICESIM_MAXD,
// LATTICESIM_SEED and LATTICESIM_WORKERS.
func OptionsFromEnv() Options {
	var o Options
	if v, err := strconv.Atoi(os.Getenv("LATTICESIM_SHOTS")); err == nil && v > 0 {
		o.Shots = v
	}
	if v, err := strconv.Atoi(os.Getenv("LATTICESIM_MAXD")); err == nil && v >= 3 {
		o.MaxD = v
	}
	if v, err := strconv.ParseUint(os.Getenv("LATTICESIM_SEED"), 0, 64); err == nil && v > 0 {
		o.Seed = v
	}
	if v, err := strconv.Atoi(os.Getenv("LATTICESIM_WORKERS")); err == nil && v > 0 {
		o.Workers = v
	}
	return o
}

// Experiment regenerates one table or figure of the paper. Run receives
// Options normalized exactly once, at registration (see All), so every
// runner observes the same resolved env/flag values.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) error
}

// withDefaultedOptions normalizes Options at the registry boundary. This
// is the single place defaults are derived: runners themselves never call
// withDefaults, so an env or flag override cannot silently diverge
// between them.
func withDefaultedOptions(run func(io.Writer, Options) error) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error { return run(w, o.withDefaults()) }
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	list := []Experiment{
		{"fig1c", "Repetition code LER vs idling period (IBM Sherbrooke)", Fig1c},
		{"fig1d", "Normalized T count enabled by Active synchronization", Fig1d},
		{"fig3c", "Synchronizations per cycle lower bound (Azure QRE workloads)", Fig3c},
		{"fig4a", "Magic state cultivation slack distribution", Fig4a},
		{"fig4b", "qLDPC memory slack vs error-correction rounds", Fig4b},
		{"fig6", "IBM Brisbane idling experiment (Passive vs Active, DD)", Fig6},
		{"fig7a", "Logical error rate vs syndrome Hamming weight", Fig7a},
		{"fig7b", "Per-round syndrome Hamming weight, Passive vs Active", Fig7b},
		{"fig10", "Extra rounds needed for synchronization (Eq. 1)", Fig10},
		{"fig11", "Hybrid extra rounds across τ × T_P' (Eq. 2)", Fig11},
		{"fig14", "LER reduction, Active vs Passive (IBM and Google)", Fig14},
		{"fig15", "LER of Ideal vs Active vs Passive", Fig15},
		{"fig16", "Final program LER increase across workloads", Fig16},
		{"fig17", "Active-intra policy reductions", Fig17},
		{"fig18a", "Active slack spread over d+1+R rounds", Fig18a},
		{"fig18b", "LER vs additional rounds (no slack)", Fig18b},
		{"fig19", "Policy comparison: Active vs Extra Rounds vs Hybrid", Fig19},
		{"fig20", "Concurrent CNOTs and k-patch synchronization time", Fig20},
		{"fig21", "Neutral-atom (QuEra) policy reductions", Fig21},
		{"fig22", "Hierarchical decoder speedup and LUT hit rates", Fig22},
		{"table1", "Logical error counts, Passive vs Active", Table1},
		{"table2", "Policy summary for T_P=1000, T_P'=1325, τ=1000", Table2},
		{"table4", "Mean LER reductions per policy and distance", Table4},
		{"table5", "Hybrid extra rounds on neutral atoms", Table5},
		{"ext-trace", "Extension: trace-driven multi-patch program simulation", ExtTrace},
		{"ext-chain", "Extension: 3-patch chain under k-patch synchronization", ExtChain},
		{"ext-dropout", "Extension: defect-induced logical clock spread", ExtDropout},
		{"ext-ablation", "Extension: decoder design-choice ablation", ExtAblation},
	}
	for i := range list {
		list[i].Run = withDefaultedOptions(list[i].Run)
	}
	return list
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// distances returns the odd distances from 3 to maxD.
func distances(maxD int) []int {
	var ds []int
	for d := 3; d <= maxD; d += 2 {
		ds = append(ds, d)
	}
	return ds
}

// runPolicy builds and runs one policy configuration, returning the
// per-observable LERs. The worker count is threaded from Options so the
// CLI / env knobs reach every figure's inner Monte Carlo loop.
func runPolicy(d int, basis surface.Basis, hw hardware.Config, p float64,
	policy core.Policy, tauNs, cyclePNs, cyclePPrimeNs float64, epsNs int64,
	shots int, seed uint64, workers int) (mc.LERResult, bool, error) {
	spec, _, ok := sweep.SpecForPolicy(d, basis, hw, p, policy, tauNs, cyclePNs, cyclePPrimeNs, epsNs)
	if !ok {
		return mc.LERResult{}, false, nil
	}
	res, err := spec.Build()
	if err != nil {
		return mc.LERResult{}, false, err
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		return mc.LERResult{}, false, err
	}
	pl.Workers = workers
	return pl.Run(shots, seed), true, nil
}

// ratio returns a/b guarding against zero denominators.
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return a / b
}

// sortedKeys returns the sorted integer keys of a map.
func sortedKeys(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}
