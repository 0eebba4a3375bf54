package exp

import (
	"fmt"
	"io"
	"sort"

	"latticesim/internal/core"
	"latticesim/internal/decoder"
	"latticesim/internal/frame"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// paperP is the circuit-level noise strength used throughout §7.
const paperP = 1e-3

// panel maps a merge basis to the observable labels the paper reports.
type panel struct {
	basis  surface.Basis
	labels [2]string
}

// the paper's "Z-basis lattice surgery" measures X_P X_P' and its
// "X-basis lattice surgery" measures Z_P Z_P'.
var panels = []panel{
	{surface.BasisX, [2]string{"XPXP'", "XP"}},
	{surface.BasisZ, [2]string{"ZPZP'", "ZP"}},
}

// Fig1d prints the normalized T-count improvement: circuits can run
// 1/LER times more T gates, so the Active policy's T budget scales by the
// LER reduction.
func Fig1d(w io.Writer, o Options) error {
	header(w, "Fig 1(d): normalized T count (Passive = 1.0)")
	d := o.MaxD
	hw := hardware.Google()
	pass, _, err := runPolicy(d, surface.BasisX, hw, paperP, core.Passive, 1000, 0, 0, 0, o.Shots, o.Seed, o.Workers)
	if err != nil {
		return err
	}
	act, _, err := runPolicy(d, surface.BasisX, hw, paperP, core.Active, 1000, 0, 0, 0, o.Shots, o.Seed+1, o.Workers)
	if err != nil {
		return err
	}
	norm := ratio(pass.Rate(surface.ObsSingle), act.Rate(surface.ObsSingle))
	fmt.Fprintf(w, "d=%d tau=1000ns %s: Passive LER %s, Active LER %s\n",
		d, hw.Name, pass.Binomial(surface.ObsSingle), act.Binomial(surface.ObsSingle))
	fmt.Fprintf(w, "normalized T count: Passive 1.00, Active %.2f (paper: 2.40 at d=15)\n", norm)
	return nil
}

// Fig7a prints LER vs syndrome Hamming weight.
func Fig7a(w io.Writer, o Options) error {
	d := o.MaxD
	header(w, fmt.Sprintf("Fig 7(a): LER vs syndrome Hamming weight (d=%d, p=1e-3; paper d=15)", d))
	spec := surface.MergeSpec{D: d, Basis: surface.BasisX, HW: hardware.IBM(), P: paperP}
	res, err := spec.Build()
	if err != nil {
		return err
	}
	pl, err := mc.NewPipeline(res.Circuit)
	if err != nil {
		return err
	}
	pl.Workers = o.Workers
	bins := pl.RunProfile(o.Shots, o.Seed, surface.ObsJoint)
	weights := make([]int, 0, len(bins))
	for k := range bins {
		weights = append(weights, k)
	}
	sort.Ints(weights)
	// Aggregate into coarse buckets so each row is statistically useful.
	fmt.Fprintf(w, "%-14s %-10s %-10s %-12s\n", "weight bucket", "shots", "errors", "LER")
	bucket := func(k int) int { return (k / 5) * 5 }
	agg := map[int]*mc.WeightBin{}
	for k, b := range bins {
		a := agg[bucket(k)]
		if a == nil {
			a = &mc.WeightBin{}
			agg[bucket(k)] = a
		}
		a.Shots += b.Shots
		a.Errors += b.Errors
	}
	var buckets []int
	for k := range agg {
		buckets = append(buckets, k)
	}
	sort.Ints(buckets)
	for _, k := range buckets {
		b := agg[k]
		fmt.Fprintf(w, "%4d-%-9d %-10d %-10d %-12.3g\n", k, k+4, b.Shots, b.Errors,
			float64(b.Errors)/float64(max(1, b.Shots)))
	}
	fmt.Fprintln(w, "higher syndrome weights carry higher logical error rates")
	return nil
}

// Fig7b prints per-round syndrome Hamming weights for Passive vs Active.
func Fig7b(w io.Writer, o Options) error {
	d := o.MaxD
	tau := 500.0
	header(w, fmt.Sprintf("Fig 7(b): per-round syndrome weight, tau=500ns (d=%d; paper d=15)", d))
	rows := map[string]map[int]float64{}
	var mergeRound int
	for _, pol := range []core.Policy{core.Passive, core.Active} {
		spec, _, _ := sweep.SpecForPolicy(d, surface.BasisX, hardware.IBM(), paperP, pol, tau, 0, 0, 0)
		res, err := spec.Build()
		if err != nil {
			return err
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			return err
		}
		pl.Workers = o.Workers
		rows[pol.String()] = pl.RoundWeights(o.Shots, o.Seed)
		mergeRound = res.MergeRound
	}
	pasv, actv := rows["Passive"], rows["Active"]
	fmt.Fprintf(w, "%-8s %-12s %-12s\n", "round", "Passive", "Active")
	for _, r := range sortedKeys(pasv) {
		marker := ""
		if r == mergeRound {
			marker = "  <- lattice surgery"
		}
		fmt.Fprintf(w, "%-8d %-12.3f %-12.3f%s\n", r, pasv[r], actv[r], marker)
	}
	fmt.Fprintf(w, "merge-round spike ratio Passive/Active: %.2f (paper: 1.8x at d=15)\n",
		ratio(pasv[mergeRound], actv[mergeRound]))
	return nil
}

// Fig14 prints the Active-vs-Passive LER reductions across distances,
// platforms, bases and slacks. It is a thin preset over one sweep grid
// per platform.
func Fig14(w io.Writer, o Options) error {
	header(w, "Fig 14: LER reduction Passive/Active (>1 favors Active)")
	taus := []float64{500, 1000}
	for _, hw := range []hardware.Config{hardware.IBM(), hardware.Google()} {
		recs, err := collectGrid(sweep.Grid{
			HW:         hw,
			Policies:   []core.Policy{core.Passive, core.Active},
			Distances:  distances(o.MaxD),
			SlackNs:    taus,
			ErrorRates: []float64{paperP},
			Bases:      []surface.Basis{surface.BasisX, surface.BasisZ},
		}, o)
		if err != nil {
			return err
		}
		base := hw.CycleNs()
		for _, pn := range panels {
			fmt.Fprintf(w, "%s, %s lattice surgery (observables %s, %s)\n",
				hw.Name, pn.basis, pn.labels[0], pn.labels[1])
			fmt.Fprintf(w, "  %-4s %-6s %-22s %-22s\n", "d", "tau", "reduction "+pn.labels[0], "reduction "+pn.labels[1])
			for _, d := range distances(o.MaxD) {
				for _, tau := range taus {
					pass := recs[pointID{core.Passive, d, tau, pn.basis, base}]
					act := recs[pointID{core.Active, d, tau, pn.basis, base}]
					fmt.Fprintf(w, "  %-4d %-6.0f %-22.3f %-22.3f\n", d, tau,
						ratio(pass.JointRate, act.JointRate),
						ratio(pass.SingleRate, act.SingleRate))
				}
			}
		}
	}
	fmt.Fprintln(w, "paper: reductions grow with d, reaching 2.4x at d=15, tau=1000")
	return nil
}

// Fig15 prints absolute LERs for Ideal / Active / Passive, as a preset
// over one sweep grid.
func Fig15(w io.Writer, o Options) error {
	header(w, "Fig 15: LER of XPXP' and XP for Ideal/Active/Passive (IBM, tau=1000ns)")
	hw := hardware.IBM()
	policies := []core.Policy{core.Ideal, core.Active, core.Passive}
	recs, err := collectGrid(sweep.Grid{
		HW:         hw,
		Policies:   policies,
		Distances:  distances(o.MaxD),
		SlackNs:    []float64{1000},
		ErrorRates: []float64{paperP},
	}, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-4s %-12s %-12s %-12s %-12s %-12s %-12s\n",
		"d", "ideal-joint", "act-joint", "pass-joint", "ideal-XP", "act-XP", "pass-XP")
	for _, d := range distances(o.MaxD) {
		var rates [3][2]float64
		for i, pol := range policies {
			r := recs[pointID{pol, d, 1000, surface.BasisX, hw.CycleNs()}]
			rates[i][0] = r.JointRate
			rates[i][1] = r.SingleRate
		}
		fmt.Fprintf(w, "%-4d %-12.3g %-12.3g %-12.3g %-12.3g %-12.3g %-12.3g\n", d,
			rates[0][0], rates[1][0], rates[2][0], rates[0][1], rates[1][1], rates[2][1])
	}
	fmt.Fprintln(w, "Active tracks the ideal system much more closely than Passive")
	return nil
}

// Fig17 prints the Active-intra reductions (can fall below 1), as a
// preset over one sweep grid. The Passive baselines are the same specs
// Fig. 14 sweeps, so with the shared cache their artifacts are reused.
func Fig17(w io.Writer, o Options) error {
	header(w, "Fig 17: reduction Passive/Active-intra (values < 1 mean Active-intra hurts)")
	hw := hardware.IBM()
	taus := []float64{500, 1000}
	recs, err := collectGrid(sweep.Grid{
		HW:         hw,
		Policies:   []core.Policy{core.Passive, core.ActiveIntra},
		Distances:  distances(o.MaxD),
		SlackNs:    taus,
		ErrorRates: []float64{paperP},
		Bases:      []surface.Basis{surface.BasisX, surface.BasisZ},
	}, o)
	if err != nil {
		return err
	}
	for _, pn := range panels {
		fmt.Fprintf(w, "%s lattice surgery, observable %s (IBM)\n", pn.basis, pn.labels[0])
		fmt.Fprintf(w, "  %-4s %-10s %-10s\n", "d", "tau=500", "tau=1000")
		for _, d := range distances(o.MaxD) {
			var vals []float64
			for _, tau := range taus {
				pass := recs[pointID{core.Passive, d, tau, pn.basis, hw.CycleNs()}]
				intra := recs[pointID{core.ActiveIntra, d, tau, pn.basis, hw.CycleNs()}]
				vals = append(vals, ratio(pass.JointRate, intra.JointRate))
			}
			fmt.Fprintf(w, "  %-4d %-10.3f %-10.3f\n", d, vals[0], vals[1])
		}
	}
	return nil
}

// Fig18a spreads the Active slack over d+1+R rounds.
func Fig18a(w io.Writer, o Options) error {
	d := o.MaxD
	header(w, fmt.Sprintf("Fig 18(a): Active slack spread over d+1+R rounds (d=%d, IBM)", d))
	fmt.Fprintf(w, "%-4s %-14s %-14s\n", "R", "tau=500", "tau=1000")
	for _, R := range []int{0, 2, 4, 6, 8, 10} {
		var vals []float64
		for _, tau := range []float64{500, 1000} {
			// Both policies run d+1+R pre-merge rounds; Active distributes
			// the slack across all of them.
			mk := func(pol core.Policy) (mc.LERResult, error) {
				spec, _, _ := sweep.SpecForPolicy(d, surface.BasisX, hardware.IBM(), paperP, pol, tau, 0, 0, 0)
				spec.RoundsP = d + 1 + R
				spec.RoundsPPrime = d + 1 + R
				res, err := spec.Build()
				if err != nil {
					return mc.LERResult{}, err
				}
				pl, err := mc.NewPipeline(res.Circuit)
				if err != nil {
					return mc.LERResult{}, err
				}
				pl.Workers = o.Workers
				return pl.Run(o.Shots, o.Seed+uint64(R)), nil
			}
			pass, err := mk(core.Passive)
			if err != nil {
				return err
			}
			act, err := mk(core.Active)
			if err != nil {
				return err
			}
			avg := (ratio(pass.Rate(0), act.Rate(0)) + ratio(pass.Rate(1), act.Rate(1))) / 2
			vals = append(vals, avg)
		}
		fmt.Fprintf(w, "%-4d %-14.3f %-14.3f\n", R, vals[0], vals[1])
	}
	fmt.Fprintln(w, "spreading over more rounds has diminishing returns (decoder imperfection accumulates)")
	return nil
}

// Fig18b prints LER vs added rounds without any slack.
func Fig18b(w io.Writer, o Options) error {
	d := o.MaxD
	header(w, fmt.Sprintf("Fig 18(b): LER vs additional rounds, no slack (d=%d, IBM)", d))
	fmt.Fprintf(w, "%-4s %-14s %-14s\n", "R", "LER joint", "LER single")
	for _, R := range []int{0, 2, 4, 6, 8, 10} {
		spec := surface.MergeSpec{
			D: d, Basis: surface.BasisX, HW: hardware.IBM(), P: paperP,
			RoundsP: d + 1 + R, RoundsPPrime: d + 1 + R,
		}
		res, err := spec.Build()
		if err != nil {
			return err
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			return err
		}
		pl.Workers = o.Workers
		r := pl.Run(o.Shots, o.Seed+uint64(R))
		fmt.Fprintf(w, "%-4d %-14.4g %-14.4g\n", R, r.Rate(0), r.Rate(1))
	}
	return nil
}

// Fig19 compares Active, Extra Rounds and Hybrid against Passive for
// unequal cycle times. Each policy case is one sweep grid (the Hybrid ε
// variants need distinct grids because ε shapes the plan); the shared
// cache deduplicates specs across cases — Passive's baselines are built
// once and the ε variants that resolve to the same schedule reuse one
// artifact set.
func Fig19(w io.Writer, o Options) error {
	d := o.MaxD
	header(w, fmt.Sprintf("Fig 19: reduction vs Passive, unequal cycles (d=%d; paper d=11)", d))
	fmt.Fprintln(w, "T_P=1000ns scaled IBM profile; averaged over T_P' in {1050,1100,1150}ns and both observables")
	type policyCase struct {
		name   string
		policy core.Policy
		eps    int64
	}
	cases := []policyCase{
		{"Active", core.Active, 0},
		{"ExtraRounds", core.ExtraRounds, 0},
		{"Hybrid(eps100)", core.Hybrid, 100},
		{"Hybrid(eps200)", core.Hybrid, 200},
		{"Hybrid(eps300)", core.Hybrid, 300},
		{"Hybrid(eps400)", core.Hybrid, 400},
	}
	hw := hardware.IBM().Scaled(1000)
	taus := []float64{500, 1000}
	tpps := []float64{1050, 1100, 1150}
	grid := func(policy core.Policy, eps int64) sweep.Grid {
		return sweep.Grid{
			HW:            hw,
			Policies:      []core.Policy{policy},
			Distances:     []int{d},
			SlackNs:       taus,
			ErrorRates:    []float64{paperP},
			CyclePNs:      1000,
			CyclePPrimeNs: tpps,
			EpsNs:         eps,
		}
	}
	passive, err := collectGrid(grid(core.Passive, 0), o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-12s %-12s\n", "policy", "tau=500", "tau=1000")
	for _, pc := range cases {
		recs, err := collectGrid(grid(pc.policy, pc.eps), o)
		if err != nil {
			return err
		}
		var cols []string
		for _, tau := range taus {
			num, den, used := 0.0, 0.0, 0
			for _, tpPrime := range tpps {
				pol := recs[pointID{pc.policy, d, tau, surface.BasisX, tpPrime}]
				if !pol.Feasible {
					continue
				}
				pass := passive[pointID{core.Passive, d, tau, surface.BasisX, tpPrime}]
				used++
				num += pass.JointRate + pass.SingleRate
				den += pol.JointRate + pol.SingleRate
			}
			if used == 0 {
				cols = append(cols, "infeasible")
				continue
			}
			cols = append(cols, fmt.Sprintf("%.3f", ratio(num, den)))
		}
		fmt.Fprintf(w, "%-16s %-12s %-12s\n", pc.name, cols[0], cols[1])
	}
	fmt.Fprintln(w, "paper: Hybrid with larger eps wins at tau=1000 (2.34x at d=11)")
	return nil
}

// Fig21 evaluates policies on the neutral-atom platform.
func Fig21(w io.Writer, o Options) error {
	d := 3
	if o.MaxD < d {
		d = o.MaxD
	}
	header(w, fmt.Sprintf("Fig 21: QuEra reductions vs Passive (d=%d; paper d=11)", d))
	hw := hardware.QuEra()
	ms := 1e6
	fmt.Fprintf(w, "%-10s %-12s %-16s %-16s\n", "tau(ms)", "Active", "Hybrid(0.1ms)", "Hybrid(0.4ms)")
	for _, tauMs := range []float64{0.2, 0.6, 1.0, 1.6, 2.0} {
		tau := tauMs * ms
		row := []string{}
		pass, _, err := runPolicy(d, surface.BasisX, hw, paperP, core.Passive, tau, 2.0*ms, 2.2*ms, 0, o.Shots, o.Seed, o.Workers)
		if err != nil {
			return err
		}
		passRate := pass.Rate(0) + pass.Rate(1)
		for _, pc := range []struct {
			policy core.Policy
			eps    int64
		}{{core.Active, 0}, {core.Hybrid, int64(0.1 * ms)}, {core.Hybrid, int64(0.4 * ms)}} {
			pol, ok, err := runPolicy(d, surface.BasisX, hw, paperP, pc.policy, tau, 2.0*ms, 2.2*ms, pc.eps, o.Shots, o.Seed+99, o.Workers)
			if err != nil {
				return err
			}
			if !ok {
				row = append(row, "infeasible")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", ratio(passRate, pol.Rate(0)+pol.Rate(1))))
		}
		fmt.Fprintf(w, "%-10.1f %-12s %-16s %-16s\n", tauMs, row[0], row[1], row[2])
	}
	fmt.Fprintln(w, "paper: long coherence makes idling cheap; extra rounds (Hybrid) hurt on neutral atoms")
	return nil
}

// Fig22 evaluates the hierarchical decoder speedup: decoding latency per
// Lattice Surgery operation with a windowed (LILLIPUT-style) LUT backed
// by the accurate matcher. The decode task is the two-round window of
// the merge operation; Active synchronization produces fewer defects in
// that window, raising the LUT hit rate and cutting mean latency.
func Fig22(w io.Writer, o Options) error {
	header(w, "Fig 22: decoding speedup of Active over Passive per Lattice Surgery op")
	lutBytes := map[int]int{3: 3 << 10, 5: 3 << 20, 7: 30 << 20}
	fmt.Fprintf(w, "%-4s %-8s %-14s %-14s %-12s %-12s\n", "d", "lutMB", "hit(Passive)", "hit(Active)", "meanLat(ns)", "speedup")
	maxD := o.MaxD
	if maxD > 7 {
		maxD = 7
	}
	for _, d := range distances(maxD) {
		var meanLat [2]float64
		var hitRate [2]float64
		for i, pol := range []core.Policy{core.Passive, core.Active} {
			spec, _, _ := sweep.SpecForPolicy(d, surface.BasisX, hardware.IBM(), paperP, pol, 1000, 0, 0, 0)
			res, err := spec.Build()
			if err != nil {
				return err
			}
			// The decode window: the merge round's detectors (the Lattice
			// Surgery operation itself, where the Passive policy's slack
			// burst lands).
			window := map[int]bool{}
			nWin := 0
			for di, det := range res.Circuit.Detectors() {
				if det.Round() == res.MergeRound {
					window[di] = true
					nWin++
				}
			}
			lut := decoder.NewWindowLUT(nWin, lutBytes[d], 8)
			lat := decoder.DefaultLatencyModel(d)
			rng := stats.NewRand(o.Seed + uint64(i))
			hits, misses := 0, 0
			total := 0.0
			sampler := frame.Compile(res.Circuit).NewSampler()
			ext := frame.NewExtractor()
			for done := 0; done < o.Shots; done += 64 {
				n := o.Shots - done
				if n > 64 {
					n = 64
				}
				b := sampler.SampleBatch(rng, n)
				ext.ForEachShot(b, func(_ int, defects []int, _ uint64) {
					inWin := 0
					for _, df := range defects {
						if window[df] {
							inWin++
						}
					}
					if lut.Hit(inWin) {
						hits++
						total += lat.HitNs
					} else {
						misses++
						total += lat.HitNs + stats.SampleLogNormal(rng, lat.MissMuLogNs, lat.MissSigma)
					}
				})
			}
			meanLat[i] = total / float64(hits+misses)
			hitRate[i] = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(w, "%-4d %-8.1f %-14.3f %-14.3f %-12.0f %-12.3f\n",
			d, float64(lutBytes[d])/(1<<20), hitRate[0], hitRate[1], meanLat[1], ratio(meanLat[0], meanLat[1]))
	}
	fmt.Fprintln(w, "paper: ~1.03x at d=3 (LUT catches everything), 2.28x at d=5, 1.41x at d=7")
	return nil
}

// Table1 prints absolute error counts for Passive vs Active, as a preset
// over one sweep grid.
func Table1(w io.Writer, o Options) error {
	header(w, "Table 1: logical error counts (Google coherence: T1=25us, T2=40us)")
	hw := hardware.Google()
	taus := []float64{500, 1000}
	recs, err := collectGrid(sweep.Grid{
		HW:         hw,
		Policies:   []core.Policy{core.Passive, core.Active},
		Distances:  distances(o.MaxD),
		SlackNs:    taus,
		ErrorRates: []float64{paperP},
	}, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shots per cell: %d (paper: 1e5)\n", o.Shots)
	for _, tau := range taus {
		fmt.Fprintf(w, "slack = %.0fns\n", tau)
		fmt.Fprintf(w, "  %-4s %-10s %-10s %-12s\n", "d", "Passive", "Active", "% reduction")
		for _, d := range distances(o.MaxD) {
			pass := recs[pointID{core.Passive, d, tau, surface.BasisX, hw.CycleNs()}]
			act := recs[pointID{core.Active, d, tau, surface.BasisX, hw.CycleNs()}]
			pc, ac := pass.SingleErrors, act.SingleErrors
			redPct := 0.0
			if pc > 0 {
				redPct = 100 * float64(pc-ac) / float64(pc)
			}
			fmt.Fprintf(w, "  %-4d %-10d %-10d %-12.2f\n", d, pc, ac, redPct)
		}
	}
	return nil
}

// Table2 prints the worked policy comparison, as a preset over per-ε
// sweep grids. The plan columns (idle, extra rounds) come straight off
// the records.
func Table2(w io.Writer, o Options) error {
	d := o.MaxD
	header(w, fmt.Sprintf("Table 2: T_P=1000ns, T_P'=1325ns, tau=1000ns, eps=400ns (d=%d; paper d=7)", d))
	hw := hardware.IBM().Scaled(1000)
	type row struct {
		name   string
		policy core.Policy
		eps    int64
	}
	fmt.Fprintf(w, "%-14s %-12s %-12s %-14s\n", "policy", "idle(ns)", "extra rounds", "LER(avg)")
	for _, rw := range []row{
		{"Active", core.Active, 0},
		{"ExtraRounds", core.ExtraRounds, 0},
		{"Hybrid", core.Hybrid, 400},
	} {
		recs, err := collectGrid(sweep.Grid{
			HW:            hw,
			Policies:      []core.Policy{rw.policy},
			Distances:     []int{d},
			SlackNs:       []float64{1000},
			ErrorRates:    []float64{paperP},
			CyclePNs:      1000,
			CyclePPrimeNs: []float64{1325},
			EpsNs:         rw.eps,
		}, o)
		if err != nil {
			return err
		}
		r := recs[pointID{rw.policy, d, 1000, surface.BasisX, 1325}]
		if !r.Feasible {
			fmt.Fprintf(w, "%-14s infeasible\n", rw.name)
			continue
		}
		fmt.Fprintf(w, "%-14s %-12.0f %-12d %-14.4g\n",
			rw.name, r.TotalIdleNs, r.ExtraRoundsP, (r.JointRate+r.SingleRate)/2)
	}
	fmt.Fprintln(w, "paper (d=7): idle 1000/0/300ns, rounds 0/52/4, LER 0.0014/0.0059/0.00095")
	return nil
}

// Table4 prints mean reductions per policy for the largest distances.
// Like Fig. 19 it is a preset over per-ε grids; unlike the pre-sweep
// implementation, the Passive baseline is computed once per (d, T_P′)
// instead of once per policy column, and its artifacts are shared with
// Fig. 19's through the preset cache.
func Table4(w io.Writer, o Options) error {
	header(w, "Table 4: mean LER reduction vs Passive (tau=1000ns)")
	hw := hardware.IBM().Scaled(1000)
	tpps := []float64{1050, 1100, 1150}
	grid := func(policy core.Policy, eps int64) sweep.Grid {
		return sweep.Grid{
			HW:            hw,
			Policies:      []core.Policy{policy},
			Distances:     distances(o.MaxD),
			SlackNs:       []float64{1000},
			ErrorRates:    []float64{paperP},
			CyclePNs:      1000,
			CyclePPrimeNs: tpps,
			EpsNs:         eps,
		}
	}
	passive, err := collectGrid(grid(core.Passive, 0), o)
	if err != nil {
		return err
	}
	cases := []struct {
		policy core.Policy
		eps    int64
	}{{core.Active, 0}, {core.ExtraRounds, 0}, {core.Hybrid, 400}}
	byCase := make([]map[pointID]sweep.Record, len(cases))
	for i, pc := range cases {
		if byCase[i], err = collectGrid(grid(pc.policy, pc.eps), o); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-4s %-10s %-14s %-18s\n", "d", "Active", "ExtraRounds", "Hybrid(eps=400)")
	for _, d := range distances(o.MaxD) {
		row := []string{}
		for i, pc := range cases {
			num, den, used := 0.0, 0.0, 0
			for _, tpPrime := range tpps {
				pol := byCase[i][pointID{pc.policy, d, 1000, surface.BasisX, tpPrime}]
				if !pol.Feasible {
					continue
				}
				pass := passive[pointID{core.Passive, d, 1000, surface.BasisX, tpPrime}]
				used++
				num += pass.JointRate + pass.SingleRate
				den += pol.JointRate + pol.SingleRate
			}
			if used == 0 {
				row = append(row, "infeasible")
			} else {
				row = append(row, fmt.Sprintf("%.2f", ratio(num, den)))
			}
		}
		fmt.Fprintf(w, "%-4d %-10s %-14s %-18s\n", d, row[0], row[1], row[2])
	}
	fmt.Fprintln(w, "paper (d=15): Active 2.14, ExtraRounds 1.63, Hybrid 3.4")
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
