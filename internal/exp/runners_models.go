package exp

import (
	"fmt"
	"io"
	"time"

	"latticesim/internal/core"
	"latticesim/internal/cultivation"
	"latticesim/internal/ddmodel"
	"latticesim/internal/hardware"
	"latticesim/internal/microarch"
	"latticesim/internal/qldpc"
	"latticesim/internal/repcode"
	"latticesim/internal/resource"
	"latticesim/internal/stats"
)

// Fig1c regenerates the repetition-code idling experiment: LER for
// |0⟩_L and |1⟩_L as the idle before the final syndrome round grows.
func Fig1c(w io.Writer, o Options) error {
	header(w, "Fig 1(c): 3-qubit repetition code on IBM-Sherbrooke-like qubits")
	idles := []float64{0, 100, 200, 300, 400, 500, 600, 700, 800}
	zero, one := repcode.Sweep(idles, o.Shots, o.Seed)
	fmt.Fprintf(w, "%-12s %-22s %-22s\n", "idle(ns)", "LER |0>_L", "LER |1>_L")
	for i, idle := range idles {
		fmt.Fprintf(w, "%-12.0f %-22s %-22s\n", idle, zero[i].String(), one[i].String())
	}
	return nil
}

// Fig3c prints the synchronization-rate lower bound per workload.
func Fig3c(w io.Writer, o Options) error {
	header(w, "Fig 3(c): minimum synchronizations per logical cycle")
	fmt.Fprintf(w, "%-15s %-10s %-10s %-12s %-10s\n", "workload", "qubits", "T count", "cycles", "sync/cycle")
	for _, wl := range resource.Workloads() {
		fmt.Fprintf(w, "%-15s %-10d %-10d %-12d %-10.2f\n",
			wl.Name, wl.LogicalQubits, wl.TCount, wl.LogicalCycles, wl.SyncsPerCycle())
	}
	return nil
}

// Fig4a regenerates the cultivation slack distributions.
func Fig4a(w io.Writer, o Options) error {
	header(w, "Fig 4(a): magic state cultivation slack (100k shots per config)")
	fmt.Fprintf(w, "%-10s %-10s %-12s %-12s %-12s %-12s\n", "platform", "p", "median(ns)", "mean(ns)", "p10(ns)", "p90(ns)")
	shots := 100000
	for _, hw := range []hardware.Config{hardware.IBM(), hardware.Google()} {
		for _, p := range []float64{0.0005, 0.001} {
			m := cultivation.New(hw, p)
			dist := m.SampleDistribution(stats.NewRand(o.Seed^uint64(len(hw.Name))), shots)
			fmt.Fprintf(w, "%-10s %-10g %-12.0f %-12.0f %-12.0f %-12.0f\n",
				hw.Name, p, dist.Median(), dist.Mean(), dist.Percentile(10), dist.Percentile(90))
		}
	}
	fmt.Fprintln(w, "paper: slack concentrated within one cycle; evaluations use tau=500ns (avg) and 1000ns (worst case)")
	return nil
}

// Fig4b regenerates the qLDPC-memory slack sawtooth.
func Fig4b(w io.Writer, o Options) error {
	header(w, "Fig 4(b): slack vs rounds with qLDPC memories (7 vs 4 CNOT layers)")
	ibm := qldpc.ClocksFor(hardware.IBM())
	ggl := qldpc.ClocksFor(hardware.Google())
	fmt.Fprintf(w, "surface cycles: IBM %.0fns, Google %.0fns; qLDPC cycles: IBM %.0fns, Google %.0fns\n",
		ibm.SurfaceCycleNs, ggl.SurfaceCycleNs, ibm.QLDPCCycleNs, ggl.QLDPCCycleNs)
	fmt.Fprintf(w, "%-8s %-12s %-12s\n", "round", "IBM(ns)", "Google(ns)")
	for r := 0; r <= 100; r += 5 {
		fmt.Fprintf(w, "%-8d %-12.0f %-12.0f\n", r, ibm.SlackAtRound(r), ggl.SlackAtRound(r))
	}
	fmt.Fprintf(w, "sawtooth period: IBM %d rounds, Google %d rounds\n", ibm.RoundsPerWrap(), ggl.RoundsPerWrap())
	return nil
}

// Fig6 regenerates the Brisbane idling fidelity experiment.
func Fig6(w io.Writer, o Options) error {
	header(w, "Fig 6(c): mean fidelity across 20 qubits, Passive vs Active idles")
	p := ddmodel.Brisbane()
	tps := []float64{0.8, 1.6, 2.4, 3.2, 4.0, 5.6}
	for _, n := range []int{20, 200} {
		fmt.Fprintf(w, "N = %d\n", n)
		fmt.Fprintf(w, "  %-10s %-12s %-12s %-10s\n", "tp(us)", "Passive", "Active", "gain")
		for _, pt := range ddmodel.Sweep(p, n, tps, 20, o.Seed) {
			fmt.Fprintf(w, "  %-10.1f %-12.4f %-12.4f %-10.4f\n",
				pt.TpUs, pt.PassiveFidelity, pt.ActiveFidelity, pt.ActiveFidelity-pt.PassiveFidelity)
		}
	}
	return nil
}

// Fig10 regenerates the extra-rounds bar chart.
func Fig10(w io.Writer, o Options) error {
	header(w, "Fig 10: extra rounds m to synchronize (T_P = 1000ns)")
	fmt.Fprintf(w, "%-8s %-8s %-14s %-10s\n", "T_P'", "tau", "extra rounds m", "n")
	for _, c := range []struct{ tpPrime, tau int64 }{
		{1200, 500}, {1200, 1000}, {1150, 500}, {1150, 1000},
		{1325, 500}, {1325, 1000}, {1725, 500}, {1725, 1000},
	} {
		m, n, ok := core.SolveExtraRounds(1000, c.tpPrime, c.tau, 0)
		if !ok {
			fmt.Fprintf(w, "%-8d %-8d %-14s %-10s\n", c.tpPrime, c.tau, "Not possible", "-")
			continue
		}
		fmt.Fprintf(w, "%-8d %-8d %-14d %-10d\n", c.tpPrime, c.tau, m, n)
	}
	return nil
}

// Fig11 regenerates the Hybrid feasibility heatmap.
func Fig11(w io.Writer, o Options) error {
	header(w, "Fig 11: Hybrid extra rounds z over tau x T_P' (T_P = 1000ns, z <= 5)")
	for _, eps := range []int64{100, 400} {
		fmt.Fprintf(w, "epsilon = %dns ('.' = no solution)\n", eps)
		fmt.Fprintf(w, "%8s", "tau\\T_P'")
		for tpPrime := int64(1050); tpPrime <= 1650; tpPrime += 50 {
			fmt.Fprintf(w, " %5d", tpPrime)
		}
		fmt.Fprintln(w)
		solvable := 0
		for tau := int64(200); tau <= 1400; tau += 100 {
			fmt.Fprintf(w, "%8d", tau)
			for tpPrime := int64(1050); tpPrime <= 1650; tpPrime += 50 {
				if z, _, _, ok := core.SolveHybrid(1000, tpPrime, tau, eps, 5); ok {
					solvable++
					fmt.Fprintf(w, " %5d", z)
				} else {
					fmt.Fprintf(w, " %5s", ".")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "solvable cells: %d\n", solvable)
	}
	return nil
}

// Fig16 regenerates the workload-level final-LER increases.
func Fig16(w io.Writer, o Options) error {
	header(w, "Fig 16: relative increase in final LER vs ideal (d=15 calibration)")
	m := resource.DefaultFinalLERModel()
	fmt.Fprintf(w, "%-15s %-18s %-18s %-10s\n", "workload", "Passive tau=1000", "Passive tau=500", "Active")
	for _, wl := range resource.Workloads() {
		fmt.Fprintf(w, "%-15s %-18.2f %-18.2f %-10.2f\n", wl.Name,
			m.Increase(wl, m.SyncPassive1000),
			m.Increase(wl, m.SyncPassive500),
			m.Increase(wl, m.SyncActive))
	}
	return nil
}

// Fig20 regenerates the concurrency table and the k-patch planning-time
// measurement on the synchronization engine.
func Fig20(w io.Writer, o Options) error {
	header(w, "Fig 20: max concurrent CNOTs per workload; k-patch sync planning time")
	fmt.Fprintf(w, "%-15s %-22s\n", "workload", "max concurrent CNOTs")
	for _, wl := range resource.Workloads() {
		fmt.Fprintf(w, "%-15s %-22d\n", wl.Name, wl.MaxConcurrentCNOTs)
	}

	// The planning-time columns are Go wall-clock means, so unlike every
	// other output they vary by machine and run; the header says so.
	fmt.Fprintf(w, "%-10s %-24s %-24s\n", "patches", "Active plan (wall-clock)", "Hybrid plan (wall-clock)")
	cycles := []int64{1000, 1150, 1325, 1725}
	for _, k := range []int{2, 5, 10, 20, 30, 40, 50} {
		eng := microarch.NewEngine(k)
		ids := make([]int, k)
		for i := 0; i < k; i++ {
			id, err := eng.Register(cycles[i%len(cycles)])
			if err != nil {
				return err
			}
			ids[i] = id
		}
		eng.Tick(int64(737 * k % 997))
		timePlan := func(policy core.Policy) (time.Duration, error) {
			const iters = 200
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := eng.PlanSync(ids, policy, 400, 5); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / iters, nil
		}
		act, err := timePlan(core.Active)
		if err != nil {
			return err
		}
		hyb, err := timePlan(core.Hybrid)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-24s %-24s\n", k, act, hyb)
	}
	fmt.Fprintln(w, "pairwise plans are independent; with per-pair lanes the hardware latency is O(1) in k")
	return nil
}

// Table5 regenerates the neutral-atom Hybrid extra-round table.
func Table5(w io.Writer, o Options) error {
	header(w, "Table 5: Hybrid extra rounds on QuEra (T_P=2ms, worst case over T_P' in {2.2,2.4,2.6}ms)")
	ms := func(x float64) int64 { return int64(x * 1e6) }
	taus := []float64{0.2, 0.6, 1.0, 1.6, 2.0}
	fmt.Fprintf(w, "%-18s", "eps \\ tau (ms)")
	for _, tau := range taus {
		fmt.Fprintf(w, " %6.1f", tau)
	}
	fmt.Fprintln(w)
	for _, eps := range []float64{0.1, 0.4} {
		fmt.Fprintf(w, "%-18.1f", eps)
		for _, tau := range taus {
			worst := 0
			for _, tpPrime := range []float64{2.2, 2.4, 2.6} {
				if z, _, _, ok := core.SolveHybrid(ms(2.0), ms(tpPrime), ms(tau), ms(eps), 0); ok && z > worst {
					worst = z
				}
			}
			fmt.Fprintf(w, " %6d", worst)
		}
		fmt.Fprintln(w)
	}
	return nil
}
