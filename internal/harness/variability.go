package harness

import (
	"errors"
	"fmt"

	"varsim/internal/core"
	"varsim/internal/fleet"
	"varsim/internal/plot"
	"varsim/internal/rng"
	"varsim/internal/stats"
	"varsim/internal/trace"
	"varsim/internal/workloads"
)

// Fig1SchedulerDivergence reproduces Figure 1: two runs from the same
// initial conditions, one with a 2-way and one with a 4-way L2, schedule
// the same threads at first and then diverge onto different execution
// paths.
func (h *H) Fig1SchedulerDivergence() error {
	traces := make([][]trace.Event, 2)
	for i, assoc := range []int{2, 4} {
		cfg := h.baseConfig()
		cfg.L2.Assoc = assoc
		m, err := core.NewCheckpoint(cfg, "oltp", h.opt.Seed, rng.Derive(h.opt.Seed, 0xF1), 0)
		if err != nil {
			return err
		}
		m.EnableTrace(0)
		if _, err := m.Run(h.scaleTxns(600)); err != nil {
			return err
		}
		traces[i] = trace.Dispatches(m.Trace().Events())
	}
	a, b := traces[0], traces[1]
	d := trace.CompareDispatches(a, b)
	div, n := d.Prefix, d.Compared
	fmt.Fprintf(h.opt.Out, "run1 (2-way): %d scheduling events; run2 (4-way): %d\n", len(a), len(b))
	if div == n {
		fmt.Fprintln(h.opt.Out, "traces identical over the compared prefix (lengthen the run)")
		return nil
	}
	fmt.Fprintf(h.opt.Out, "schedules identical for the first %d dispatches, diverging at %d ns (run1) / %d ns (run2)\n",
		div, d.ATimeNS, d.BTimeNS)
	fmt.Fprintf(h.opt.Out, "after divergence only %.1f%% of dispatch slots still agree (%d of %d)\n",
		100*float64(d.Agreed)/float64(n-div), d.Agreed, n-div)
	rows := [][]string{}
	for i := div; i < div+8 && i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("t=%dns cpu%d thr%d", a[i].TimeNS, a[i].CPU, a[i].Thread),
			fmt.Sprintf("t=%dns cpu%d thr%d", b[i].TimeNS, b[i].CPU, b[i].Thread),
		})
	}
	h.table("dispatch#\trun1 (2-way)\trun2 (4-way)", rows)
	for i, tr := range traces {
		var pts []plot.ScatterPoint
		for _, ev := range tr {
			pts = append(pts, plot.ScatterPoint{X: float64(ev.TimeNS), Y: int(ev.Thread)})
		}
		marker := byte('o')
		if i == 1 {
			marker = 'x'
		}
		fmt.Fprint(h.opt.Out, plot.Scatter(
			fmt.Sprintf("run %d: scheduled thread (y) over time (x):", i+1), pts, 10, 72, marker))
	}
	return nil
}

// intervalCPT buckets transaction completion times into fixed intervals
// and returns cycles-per-transaction per interval (intervals with no
// completions are skipped).
func intervalCPT(times []int64, start, end, interval int64) []float64 {
	if interval <= 0 || end <= start {
		return nil
	}
	nBuckets := int((end - start) / interval)
	counts := make([]int64, nBuckets)
	for _, t := range times {
		if t < start || t >= start+int64(nBuckets)*interval {
			continue
		}
		counts[(t-start)/interval]++
	}
	var out []float64
	for _, c := range counts {
		if c > 0 {
			out = append(out, float64(interval)/float64(c))
		}
	}
	return out
}

// realSystemWindow returns the simulated observation window and the
// interval unit used by the "real machine" experiments (Figures 2-3).
// The paper observed 600 s at 1/10/60 s intervals; we keep the 1:10:60
// ratio at a 1000x smaller scale.
func (h *H) realSystemWindow() (windowNS, unitNS int64) {
	if h.opt.Quick {
		return 6_000_000, 20_000 // 6 ms window, 20 us unit
	}
	return 60_000_000, 200_000 // 60 ms window, 200 us unit
}

// Fig2TimeVariabilityReal reproduces Figure 2: one long perturbed run
// ("real machine" mode), cycles per transaction per interval for three
// interval sizes; variability shrinks as the interval grows.
func (h *H) Fig2TimeVariabilityReal() error {
	window, unit := h.realSystemWindow()
	cfg := h.baseConfig()
	m, err := core.NewCheckpoint(cfg, "oltp", h.opt.Seed, rng.Derive(h.opt.Seed, 0xF2), 0)
	if err != nil {
		return err
	}
	m.EnableTrace(0)
	if _, err := m.Run(h.scaleTxns(300)); err != nil { // warm up
		return err
	}
	start := m.Now()
	if _, err := m.RunNS(window); err != nil {
		return err
	}
	times := trace.TxnEndTimes(m.Trace().Events())
	rows := [][]string{}
	for _, mult := range []int64{1, 10, 60} {
		series := intervalCPT(times, start, start+window, unit*mult)
		if len(series) == 0 {
			continue
		}
		s := stats.Summarize(series)
		rows = append(rows, []string{
			fmt.Sprintf("%d units (%.1f ms)", mult, float64(unit*mult)/1e6),
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.0f", s.Min),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.2f%%", s.CoV),
			fmt.Sprintf("%.2f%%", s.RangePct),
		})
	}
	h.table("interval\t#obs\tmean CPT\tmin\tmax\tCoV\trange", rows)
	fmt.Fprintln(h.opt.Out, "expected shape: CoV and range shrink sharply as the interval grows (paper: ~3x swings at 1 unit, nearly flat at 60)")
	return nil
}

// Fig3SpaceVariabilityReal reproduces Figure 3: five runs from the same
// initial conditions with different perturbation streams; per-interval
// mean +/- sigma across runs.
func (h *H) Fig3SpaceVariabilityReal() error {
	window, unit := h.realSystemWindow()
	interval := unit * 10
	nRuns := 5
	var series [][]float64
	for r := 0; r < nRuns; r++ {
		m, err := core.NewCheckpoint(h.baseConfig(), "oltp", h.opt.Seed, rng.Derive(h.opt.Seed, 0xF30+uint64(r)), 0)
		if err != nil {
			return err
		}
		m.EnableTrace(0)
		if _, err := m.Run(h.scaleTxns(300)); err != nil {
			return err
		}
		start := m.Now()
		if _, err := m.RunNS(window); err != nil {
			return err
		}
		series = append(series, intervalCPT(trace.TxnEndTimes(m.Trace().Events()), start, start+window, interval))
	}
	minLen := len(series[0])
	for _, s := range series {
		if len(s) < minLen {
			minLen = len(s)
		}
	}
	rows := [][]string{}
	var covs []float64
	for i := 0; i < minLen; i++ {
		col := make([]float64, nRuns)
		for r := 0; r < nRuns; r++ {
			col[r] = series[r][i]
		}
		s := stats.Summarize(col)
		covs = append(covs, s.CoV)
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.0f", s.StdDev),
			fmt.Sprintf("%.2f%%", s.CoV),
		})
	}
	h.table("interval#\tmean CPT (5 runs)\tsigma\tCoV", rows)
	fmt.Fprintf(h.opt.Out, "mean across-run CoV per interval: %.2f%% (paper: significant spread even with >3000 txns per interval)\n",
		stats.Mean(covs))
	return nil
}

// Fig4DRAMSweep reproduces Figure 4: single 500-transaction runs with
// DRAM latency swept 80..90 ns. The trend is upward, but single runs are
// non-monotone — some slower-memory configurations appear faster.
func (h *H) Fig4DRAMSweep() error {
	type pt struct {
		lat int64
		cpt float64
	}
	var pts []pt
	for lat := int64(80); lat <= 90; lat++ {
		cfg := h.baseConfig()
		cfg.MemSupplyNS = lat
		m, err := core.NewCheckpoint(cfg, "oltp", h.opt.Seed, rng.Derive(h.opt.Seed, 0xF4), 0)
		if err != nil {
			return err
		}
		if _, err := m.Run(h.scaleTxns(300)); err != nil {
			return err
		}
		res, err := m.Run(h.scaleTxns(500))
		if err != nil {
			return err
		}
		pts = append(pts, pt{lat, res.CPT})
	}
	rows := [][]string{}
	inversions := 0
	maxSwing := 0.0
	for i, p := range pts {
		mark := ""
		if i > 0 && p.cpt < pts[i-1].cpt {
			inversions++
			mark = "  <- faster despite slower memory"
		}
		for j := 0; j < i; j++ {
			if sw := 100 * (pts[j].cpt - p.cpt) / p.cpt; sw > maxSwing {
				maxSwing = sw
			}
		}
		rows = append(rows, []string{fmt.Sprintf("%d ns", p.lat), fmt.Sprintf("%.0f", p.cpt), mark})
	}
	h.table("DRAM latency\tcycles/txn (1 run)\t", rows)
	fmt.Fprintf(h.opt.Out, "adjacent inversions: %d of 10; largest \"slower memory looks faster\" swing: %.1f%% (paper: 84 ns beat 81 ns by 7%%)\n",
		inversions, maxSwing)
	return nil
}

// table3Benches lists Table 3's seven benchmarks with their warmup
// lengths; measurement lengths are workloads.DefaultTxns.
var table3Benches = []struct {
	name   string
	warmup int64
}{
	{"barnes", 0}, {"ocean", 0}, {"ecperf", 3}, {"slashcode", 10},
	{"oltp", 500}, {"apache", 500}, {"specjbb", 500},
}

// table3Fleet builds each Table 3 benchmark's experiment and hands it
// to run on the harness fleet; a failure is named by its benchmark. The
// seven are independent, and results come back in table3Benches order,
// so what is rendered from them is byte-identical for any worker count.
// table3 and sampling both build their experiments here, which is what
// lets a journal of the one replay into the other.
func table3Fleet[T any](h *H, run func(core.Experiment) (T, error)) ([]T, error) {
	out, err := fleet.Map(h.opt.Workers, len(table3Benches), func(i int) (T, error) {
		b := table3Benches[i]
		e := h.experiment(b.name, h.baseConfig(), b.name, b.warmup, workloads.DefaultTxns(b.name), 0x33)
		if b.name == "barnes" || b.name == "ocean" {
			e.MeasureTxns = 1 // whole program, never scaled
			e.WarmupTxns = 0
		}
		return run(e)
	})
	var je *fleet.JobError
	if errors.As(err, &je) {
		return nil, fmt.Errorf("%s: %w", table3Benches[je.Index].name, je.Err)
	}
	return out, err
}

// Table3Benchmarks reproduces Table 3 + Figure 7: space variability
// (coefficient of variation, range of variability) across the seven
// benchmarks.
func (h *H) Table3Benchmarks() error {
	type benchSpace struct {
		txns  int64
		space core.Space
	}
	spaces, err := table3Fleet(h, func(e core.Experiment) (benchSpace, error) {
		sp, err := e.RunSpace()
		return benchSpace{txns: e.MeasureTxns, space: sp}, err
	})
	if err != nil {
		return err
	}
	rows := [][]string{}
	for i, bs := range spaces {
		s := bs.space.Summary()
		rows = append(rows, []string{
			table3Benches[i].name,
			fmt.Sprintf("%d", bs.txns),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.2f%%", s.CoV),
			fmt.Sprintf("%.2f%%", s.RangePct),
		})
	}
	h.table("benchmark\t#txns\tmean CPT\tcoeff of variation\trange of variability", rows)
	fmt.Fprintln(h.opt.Out, "paper: Barnes 0.16%/0.59% ... Slashcode 3.60%/14.45%; commercial workloads well above scientific ones")
	return nil
}

// Table4RunLengths reproduces Table 4: OLTP space variability shrinks as
// the simulated run length grows from 200 to 1000 transactions.
func (h *H) Table4RunLengths() error {
	base, err := h.experiment("oltp", h.baseConfig(), "oltp", 500, 200, 0x44).Prepare()
	if err != nil {
		return err
	}
	// Each run length branches its own space from the shared prepared
	// checkpoint. Snapshot is read-only only on a frozen machine, and
	// Branch freezes its checkpoint, so freeze it once here: then the
	// five lengths fan out on the fleet concurrently without a write.
	base.Freeze()
	lengths := []int64{200, 400, 600, 800, 1000}
	spaces, err := fleet.Run(fleet.Options[core.Space]{
		Workers: h.opt.Workers,
		Stop:    h.opt.Resilience.Stop,
	}, len(lengths), func(i int) (core.Space, error) {
		txns := lengths[i]
		b, err := core.Branch(base, core.BranchPlan{
			Label: fmt.Sprintf("%d", txns), N: h.runs(), MeasureTxns: h.scaleTxns(txns),
			SeedBase: rng.Derive(h.opt.Seed, 0x440+uint64(txns)), Workers: h.opt.Workers, Resilience: h.opt.Resilience,
		})
		return b.Space(), err
	})
	if err != nil {
		return err
	}
	rows := [][]string{}
	for i, sp := range spaces {
		txns := lengths[i]
		s := sp.Summary()
		var sumNS int64
		for _, r := range sp.Results {
			sumNS += r.ElapsedNS
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", h.scaleTxns(txns)),
			fmt.Sprintf("%.2f%%", s.CoV),
			fmt.Sprintf("%.2f%%", s.RangePct),
			fmt.Sprintf("%.2f", float64(sumNS)/float64(len(sp.Results))/1e6),
			fmt.Sprintf("%.2f", float64(sumNS)/1e6),
		})
	}
	h.table("#simulated txns\tcoeff of variation\trange of variability\tavg runtime (sim ms, 1 run)\ttotal (sim ms, all runs)", rows)
	fmt.Fprintln(h.opt.Out, "paper: CoV falls 3.27% -> 0.98% and range 12.72% -> 3.86% from 200 to 1000 txns")
	return nil
}

// Fig8LongRunPhases reproduces Figure 8: long OLTP runs show distinct
// phases; windowed cycles-per-transaction varies far more across a run
// than perturbation noise explains.
func (h *H) Fig8LongRunPhases() error {
	nRuns, total, windowTxns := 10, int64(4000), int64(40)
	if h.opt.Quick {
		nRuns, total, windowTxns = 3, 800, 20
	}
	nWindows := int(total / windowTxns)
	perWindow := make([][]float64, nWindows)
	for r := 0; r < nRuns; r++ {
		m, err := core.NewCheckpoint(h.baseConfig(), "oltp", h.opt.Seed, rng.Derive(h.opt.Seed, 0xF80+uint64(r)), 0)
		if err != nil {
			return err
		}
		// Warm caches and buffer pool first so the windows show workload
		// phases, not cold start (the paper's runs measure a warmed
		// database, §3.1).
		if _, err := m.Run(h.scaleTxns(500)); err != nil {
			return err
		}
		m.EnableTrace(0)
		startNS := m.Now()
		if _, err := m.Run(total); err != nil {
			return err
		}
		times := trace.TxnEndTimes(m.Trace().Events())
		prev := startNS
		for w := 0; w < nWindows; w++ {
			endIdx := int64(w+1)*windowTxns - 1
			if endIdx >= int64(len(times)) {
				break
			}
			end := times[endIdx]
			perWindow[w] = append(perWindow[w], float64(end-prev)/float64(windowTxns))
			prev = end
		}
	}
	rows := [][]string{}
	var means []float64
	for w := 0; w < nWindows; w++ {
		if len(perWindow[w]) == 0 {
			continue
		}
		s := stats.Summarize(perWindow[w])
		means = append(means, s.Mean)
		if w%(nWindows/20+1) == 0 {
			rows = append(rows, []string{
				fmt.Sprintf("%d-%d", int64(w)*windowTxns, int64(w+1)*windowTxns),
				fmt.Sprintf("%.0f", s.Mean),
				fmt.Sprintf("%.0f", s.StdDev),
			})
		}
	}
	h.table("txn window\tmean CPT (across runs)\tsigma", rows)
	fmt.Fprint(h.opt.Out, plot.Series("windowed cycles per transaction across the run:", "CPT", means, 12, 72))
	s := stats.Summarize(means)
	fmt.Fprintf(h.opt.Out, "window means vary by %.1f%% of mean across the run (paper: up to 27%%); window-series CoV %.2f%%\n",
		s.RangePct, s.CoV)
	return nil
}

// fig9Workloads are the workloads Figure 9 and the §5.2 ANOVA sample
// through time, with their per-run measurement lengths.
var fig9Workloads = []struct {
	name    string
	measure int64
}{{"oltp", 200}, {"specjbb", 500}}

// Fig9Checkpoints reproduces Figure 9: spaces of runs branched from ten
// checkpoints through each workload's lifetime; performance depends
// strongly on the starting checkpoint.
func (h *H) Fig9Checkpoints() error {
	for _, w := range fig9Workloads {
		cks, spaces, err := h.fig9Spaces(w.name, w.measure)
		if err != nil {
			return err
		}
		rows := [][]string{}
		var means []float64
		for i, sp := range spaces {
			s := sp.Summary()
			means = append(means, s.Mean)
			rows = append(rows, []string{
				fmt.Sprintf("%d", cks[i]),
				fmt.Sprintf("%.0f", s.Mean),
				fmt.Sprintf("%.0f", s.Min),
				fmt.Sprintf("%.0f", s.Max),
				fmt.Sprintf("%.2f%%", s.CoV),
			})
		}
		fmt.Fprintf(h.opt.Out, "--- %s (measure %d txns per run) ---\n", w.name, h.scaleTxns(w.measure))
		h.table("warmup txns (checkpoint)\tavg CPT\tmin\tmax\twithin-ckpt CoV", rows)
		var pts []plot.ErrorBarPoint
		for i, sp := range spaces {
			s := sp.Summary()
			pts = append(pts, plot.ErrorBarPoint{
				Label: fmt.Sprintf("%dk", cks[i]/1000),
				Mean:  s.Mean, Dev: s.StdDev, Min: s.Min, Max: s.Max,
			})
		}
		fmt.Fprint(h.opt.Out, plot.ErrorBars("", "cycles per transaction", pts, 12))
		ms := stats.Summarize(means)
		fmt.Fprintf(h.opt.Out, "between-checkpoint spread of means: %.1f%% (paper: >16%% for OLTP, >36%% for SPECjbb)\n", ms.RangePct)
	}
	return nil
}

// PerturbSensitivity reproduces the §3.3 sensitivity result: shrinking
// the perturbation from 0-4 ns to 0-1 ns does not significantly change
// the coefficient of variation.
func (h *H) PerturbSensitivity() error {
	rows := [][]string{}
	for _, maxNS := range []int64{1, 4} {
		cfg := h.baseConfig()
		cfg.PerturbMaxNS = maxNS
		e := h.experiment(fmt.Sprintf("0-%dns", maxNS), cfg, "oltp", 500, 200, 0x55)
		sp, err := e.RunSpace()
		if err != nil {
			return err
		}
		s := sp.Summary()
		rows = append(rows, []string{
			fmt.Sprintf("0-%d ns", maxNS),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.2f%%", s.CoV),
			fmt.Sprintf("%.2f%%", s.RangePct),
		})
	}
	h.table("perturbation\tmean CPT\tcoeff of variation\trange", rows)
	fmt.Fprintln(h.opt.Out, "paper: the perturbation magnitude does not significantly affect the coefficient of variation")
	return nil
}

// ANOVAStudy reproduces the §5.2 analysis: one-way ANOVA with
// checkpoints as groups decides whether between-checkpoint (time)
// variability is attributable to within-checkpoint (space) variability.
func (h *H) ANOVAStudy() error {
	for _, w := range fig9Workloads {
		_, spaces, err := h.fig9Spaces(w.name, w.measure)
		if err != nil {
			return err
		}
		res, err := core.ANOVAOverCheckpoints(spaces)
		if err != nil {
			return err
		}
		verdict := "NOT significant: single-starting-point sampling suffices"
		if res.Significant(0.05) {
			verdict = "SIGNIFICANT: samples must span multiple starting points"
		}
		fmt.Fprintf(h.opt.Out, "%s: F(%.0f,%.0f) = %.2f, p = %.4g, between-group share = %.1f%% -> %s\n",
			w.name, res.DFBetween, res.DFWithin, res.F, res.P, 100*res.BetweenShare, verdict)
	}
	fmt.Fprintln(h.opt.Out, "paper: between-group variability significant for both workloads at 0.1/0.05/0.01")
	return nil
}
