// Command e2ebench is latticesim's end-to-end benchmark: four workloads
// that run the library the way its users do, from the d=7 Monte Carlo
// hot loop to a two-node campaign, each checked for correct output.
//
//	e2ebench --workload mem-d7 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the workload untraced and reports the
// end-to-end metrics; with --trace 1 it runs untraced passes, then traced
// passes that time every call into a layer, and reports the per-layer
// metrics. Human-readable metric lines go to stdout, followed by one JSON
// result line. run.sh in this directory builds the benchmark from the
// checkout's sources and runs it; README.md lists what each workload and
// metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// runPlan is what one workload run is asked to do. Passes is the number
// of untraced passes; TracedPasses, when positive, is the number of
// traced passes that follow them, recording spans in Tracer.
type runPlan struct {
	Seed         uint64
	Passes       int
	TracedPasses int
	Tracer       *tracer
}

// result accumulates what one workload run measured.
type result struct {
	attempted, failed int
	checkFailures     []string

	// Untraced measurements: one entry per set-up or pass; latency holds
	// each pass's operation latencies.
	setup, wall, shots, ops, retained []float64
	latency                           [][]float64

	// Traced measurements.
	tracedWall []float64
	layers     map[string]float64
}

func newResult() *result { return &result{layers: make(map[string]float64)} }

// opFailed counts a failed or refused operation; the run goes on.
func (r *result) opFailed(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: operation failed: %v\n", err)
}

// check counts one output check, recording it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. nominalPass is the wall time of
// one untraced pass on the reference machine (2 vCPUs); --seconds is
// turned into a pass count with it, so every run of a workload measures
// the same amount of work and its percentiles rest on the same sample
// count.
type workload struct {
	name        string
	nominalPass float64
	run         func(runPlan, *result) error
}

var workloads = []workload{
	{"mem-d7", 0.85, memD7Default.run},
	{"trace-factory8", 3.5, traceDefault.run},
	{"serve", 1.45, serveDefault.run},
	{"fleet", 5, fleetDefault.run},
}

// endToEndUnits and layerUnits list every reported metric with its
// unit; BENCHMARK.json declares the same names and units.
var endToEndUnits = map[string]string{
	"wall_s":         "s",
	"setup_s":        "s",
	"shots_per_s":    "1/s",
	"latency_p50_s":  "s",
	"latency_tail_s": "s",
	"jobs_per_s":     "1/s",
	"retained_mb":    "MB",
}

var layerUnits = map[string]string{
	"surface.build_s":             "s",
	"dem.extract_s":               "s",
	"dem.extract_allocs":          "count",
	"decoder.graph_s":             "s",
	"decoder.pretable_s":          "s",
	"frame.compile_s":             "s",
	"sweep.cache_misses":          "count",
	"sweep.cache_hit_ratio":       "ratio",
	"frame.sample_ns_per_shot":    "ns",
	"frame.extract_ns_per_shot":   "ns",
	"decoder.decode_ns_per_shot":  "ns",
	"decoder.predecode_hit_ratio": "ratio",
	"mc.overhead_ns_per_shot":     "ns",
	"mc.allocs_per_kshot":         "count",
	"trace.build_s":               "s",
	"trace.warm_s":                "s",
	"service.submit_s":            "s",
	"service.submit_tail_s":       "s",
	"service.queue_wait_s":        "s",
	"service.queue_wait_tail_s":   "s",
	"service.execute_s":           "s",
	"service.execute_tail_s":      "s",
	"service.fetch_s":             "s",
	"service.fetch_tail_s":        "s",
	"service.store_hit_ratio":     "ratio",
	"service.requeues":            "count",
	"service.steals":              "count",
	"worker.queue_wait_s":         "s",
	"worker.queue_wait_max_s":     "s",
	"worker.unit_s":               "s",
	"worker.unit_max_s":           "s",
	"worker.idle_frac":            "ratio",
	"bench.tracing_overhead_frac": "ratio",
	"failed_frac":                 "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code. A
// workload that cannot run at all exits 1 without a result line; failed
// output checks are reported in the result (correct=false).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mem-d7, trace-factory8, serve or fleet")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "measured time on the reference machine, converted to a pass count")
	traceMode := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced pass writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (mem-d7, trace-factory8, serve, fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}

	out, err := measure(*w, *seed, *seconds, *traceMode == 1, *spansDir, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one workload and returns its result. Traced, it runs
// half the passes untraced and half traced and reports the per-layer
// metrics; untraced, the end-to-end metrics. Every metric is also
// printed to stdout with its unit.
func measure(w workload, seed uint64, seconds float64, traced bool, spansDir string, stdout, stderr io.Writer) (output, error) {
	passes := max(1, int(math.Round(seconds/w.nominalPass)))
	plan := runPlan{Seed: seed, Passes: passes}
	if traced {
		half := (passes + 1) / 2
		plan = runPlan{Seed: seed, Passes: half, TracedPasses: half, Tracer: newTracer()}
	}
	res := newResult()
	if err := w.run(plan, res); err != nil {
		return output{}, err
	}
	for _, f := range res.checkFailures {
		fmt.Fprintf(stderr, "e2ebench: %s: output check failed: %s\n", w.name, f)
	}

	out := output{Correct: len(res.checkFailures) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metric)}
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	if !traced {
		for name, v := range endToEnd(res) {
			out.Metrics[name] = metric{v, endToEndUnits[name]}
		}
		pct, _ := tail(res.latency[0])
		fmt.Fprintf(stdout, "%s: %d set-ups (setup_s from %.4g to %.4g), %d passes (wall_s %.4g); latency_tail_s is p%g of %d operations per pass; failed_frac %g (%d/%d)\n",
			w.name, len(res.setup), quantile(res.setup, 0), quantile(res.setup, 1), len(res.wall), res.wall,
			pct, len(res.latency[0]), failedFrac, res.failed, res.attempted)
	} else {
		for name, unit := range layerUnits {
			out.Metrics[name] = metric{res.layers[name], unit}
		}
		base := median(res.wall)
		out.Metrics["bench.tracing_overhead_frac"] = metric{(median(res.tracedWall) - base) / base, "ratio"}
		out.Metrics["failed_frac"] = metric{failedFrac, "ratio"}
		if spansDir != "" {
			path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.ndjson", w.name, seed))
			if err := plan.Tracer.write(path); err != nil {
				return output{}, err
			}
			fmt.Fprintf(stdout, "%s: spans written to %s\n", w.name, path)
		}
		printSelfTimes(stdout, w.name, plan.Tracer)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	return out, nil
}

// endToEnd derives the end-to-end metrics from the untraced passes.
// Rates, and the latency median and tail, are taken per pass; every
// metric is then a median over passes (setup_s: over set-ups).
func endToEnd(r *result) map[string]float64 {
	n := len(r.wall)
	shotRate, opRate, p50, tails := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, w := range r.wall {
		shotRate[i] = r.shots[i] / w
		opRate[i] = r.ops[i] / w
		p50[i] = median(r.latency[i])
		_, tails[i] = tail(r.latency[i])
	}
	return map[string]float64{
		"wall_s":         median(r.wall),
		"setup_s":        median(r.setup),
		"shots_per_s":    median(shotRate),
		"latency_p50_s":  median(p50),
		"latency_tail_s": median(tails),
		"jobs_per_s":     median(opRate),
		"retained_mb":    median(r.retained),
	}
}

// printSelfTimes prints the traced passes' self time per span name,
// largest first: where the traced time went.
func printSelfTimes(w io.Writer, name string, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s: traced self time by span\n", name)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %10.4f s\n", n, self[n])
	}
}
