package main

import (
	"fmt"
	"time"

	"sendforget/internal/degreemc"
	"sendforget/internal/engine"
	"sendforget/internal/experiments"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/markov"
	"sendforget/internal/metrics"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
)

// The figures workload regenerates four of the paper's figures through the
// experiment runners, with their default parameters and the workload seed.
// lem7.5 is left out: its global Markov chain alone runs about 18 s on a
// two-core host, longer than a whole pass over the four figures below, so a
// pass including it would not fit a run twice.

// figure is one paper artifact the workload regenerates.
type figure struct {
	id, layer string
	run       func(seed int64) (*experiments.Report, error)
}

var figures = []figure{
	{"fig6.3", "experiments.fig6_3_s", func(seed int64) (*experiments.Report, error) {
		return experiments.Fig63(experiments.Fig63Params{Seed: seed})
	}},
	{"fig6.4", "experiments.fig6_4_s", func(seed int64) (*experiments.Report, error) {
		return experiments.Fig64(experiments.Fig64Params{Seed: seed})
	}},
	{"cor6.14", "experiments.cor6_14_s", func(seed int64) (*experiments.Report, error) {
		return experiments.Cor614(experiments.Cor614Params{Seed: seed})
	}},
	{"fig6.1", "experiments.fig6_1_s", func(seed int64) (*experiments.Report, error) {
		return experiments.Fig61(experiments.Fig61Params{Seed: seed})
	}},
}

// fig63Indegrees is the degree-MC column of EXPERIMENTS.md's fig6.3 table:
// mean in-degree and its standard deviation per loss rate, as printed.
var fig63Indegrees = map[string]string{
	"0.00": "28.0 ± 3.6",
	"0.01": "26.8 ± 4.0",
	"0.05": "24.3 ± 4.7",
	"0.10": "22.8 ± 5.0",
}

const (
	// figSetups is how many warm-ups a run times; setup_s is the median.
	figSetups = 9
	// figPasses is the least number of passes an untraced run makes.
	figPasses = 3
)

// figureWarmUp is the workload's set-up: fig6.2's structure check (state
// space, chain, irreducibility and ergodicity) at the degree-MC parameters
// the figures solve, s=40 with dL=18 (fig6.3) and s=90 with dL=0 (fig6.1).
// It loads the solver code and grows the heap before the timed passes.
func figureWarmUp() error {
	for _, p := range []experiments.Fig62Params{{S: 40, DL: 18, Loss: 0.01}, {S: 90, DL: 0, Loss: 0.01}} {
		if _, err := experiments.Fig62(p); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// figSeed derives figure k's seed from the workload seed. The runners treat
// a zero seed as "use the default", so zero maps to one.
func figSeed(seed int64, k int) int64 {
	s := rng.DeriveSeed(seed, 5, int64(k))
	if s == 0 {
		s = 1
	}
	return s
}

// figurePass regenerates every figure once. Each figure starts from an
// empty degree-MC memo, so every pass times the fixed-point solves rather
// than lookups left by the previous one. It returns the pass time and the
// time of each figure.
func figurePass(r *run, t *tracer, op int, pass int) (time.Duration, []time.Duration) {
	failed := 0
	each := make([]time.Duration, len(figures))
	start := time.Now()
	root := t.begin("experiments.pass", 0, op)
	for k, f := range figures {
		degreemc.ResetSolveCache()
		sp := t.begin(f.layer, root, op)
		t0 := time.Now()
		rep, err := f.run(figSeed(r.seed, pass*len(figures)+k))
		each[k] = time.Since(t0)
		t.end(sp, 1)
		if err == nil && f.id == "fig6.3" {
			err = checkFig63(rep)
		}
		if err != nil {
			failed++
			fmt.Fprintf(r.out, "error  %s: %v\n", f.id, err)
		}
	}
	t.end(root, len(figures))
	r.ops(len(figures), failed)
	return time.Since(start), each
}

// checkFig63 compares fig6.3's degree-MC in-degree column with the table in
// EXPERIMENTS.md, to its printed precision.
func checkFig63(rep *experiments.Report) error {
	for _, tab := range rep.Tables {
		if tab.Title != "Moments per loss rate" {
			continue
		}
		col := -1
		for i, c := range tab.Columns {
			if c == "indegree (MC)" {
				col = i
			}
		}
		if col < 0 {
			return fmt.Errorf("fig6.3: no indegree (MC) column")
		}
		seen := 0
		for _, row := range tab.Rows {
			want, ok := fig63Indegrees[row[0]]
			if !ok {
				continue
			}
			seen++
			if row[col] != want {
				return fmt.Errorf("fig6.3: loss %s in-degree %q, EXPERIMENTS.md has %q", row[0], row[col], want)
			}
		}
		if seen != len(fig63Indegrees) {
			return fmt.Errorf("fig6.3: %d of %d loss rates reported", seen, len(fig63Indegrees))
		}
		return nil
	}
	return fmt.Errorf("fig6.3: no moments table")
}

func runFigures(r *run) error {
	if r.trace == nil {
		var times []float64
		for i := 0; i < figSetups; i++ {
			t0 := time.Now()
			if err := figureWarmUp(); err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		r.set("setup_s", median(times))
	}
	if r.trace != nil {
		return traceFigures(r)
	}
	// At least figPasses passes, so that each figure's median has a
	// majority to stand on. The pass time reported is the sum of the
	// figures' medians: a slow stretch of the host that hits one figure of
	// one pass then moves nothing.
	var passes latencies
	per := make([]latencies, len(figures))
	start := time.Now()
	for pass := 0; pass < figPasses || time.Since(start) < r.window; pass++ {
		d, each := figurePass(r, nil, pass+1, pass)
		passes = append(passes, d)
		for k := range figures {
			per[k] = append(per[k], each[k])
		}
	}
	var set float64
	for k, f := range figures {
		m := per[k].quantile(0.5)
		set += m
		r.info(f.layer, m/1e3, "s")
	}
	r.set("op_ms_p50", set)
	r.info("passes", float64(len(passes)), "passes")
	r.info("figure_set_s", set/1e3, "s")
	r.info("figure_set_s_max", passes.quantile(1)/1e3, "s")
	return nil
}

// traceFigures is the traced run: it replays fig6.3's parts layer by layer,
// then runs untraced and traced passes for the per-figure times and the
// tracing overhead.
func traceFigures(r *run) error {
	t := r.trace
	op := 1

	// degreemc: the fixed-point solve at fig6.3's four loss rates.
	degreemc.ResetSolveCache()
	var solves latencies
	outer := 0
	var mid *degreemc.Result
	for _, l := range []float64{0, 0.01, 0.05, 0.1} {
		sp := t.begin("degreemc.solve", 0, op)
		res, err := degreemc.Solve(degreemc.Params{S: sfS, DL: sfDL, Loss: l}, degreemc.SolveOptions{})
		t.end(sp, 1)
		if err != nil {
			return fmt.Errorf("degreemc.Solve loss %v: %w", l, err)
		}
		solves = append(solves, t.durationOf(sp))
		outer += res.OuterIterations
		if l == sfLoss {
			mid = res
		}
	}
	r.set("degreemc.solve_ms", float64(solves.total())/float64(len(solves))/1e6)
	r.set("degreemc.outer_iters", float64(outer))

	// markov: the chain at the loss-0.01 fixed point, solved from uniform.
	op++
	sp := t.begin("degreemc.build_chain", 0, op)
	space, err := degreemc.NewSpace(degreemc.Params{S: sfS, DL: sfDL, Loss: sfLoss})
	if err != nil {
		return err
	}
	field, err := space.DeriveField(mid.Pi)
	if err != nil {
		return err
	}
	chain, err := space.BuildChain(field)
	if err != nil {
		return err
	}
	csr := chain.Finalize()
	t.end(sp, space.Len())
	sp = t.begin("markov.stationary", 0, op)
	_, inner, err := markov.Stationary(csr, nil, 1e-11, 400000)
	t.end(sp, inner)
	if err != nil {
		return err
	}
	r.set("markov.stationary_ms", float64(t.durationOf(sp))/1e6)
	r.set("markov.inner_iters", float64(inner))

	// engine: fig6.3's simulation column, n=1500 for 300 rounds.
	const simN, simRounds = 1500, 300
	op++
	proto, err := sendforget.New(sendforget.Config{N: simN, S: sfS, DL: sfDL})
	if err != nil {
		return err
	}
	e, err := engine.New(proto, loss.MustUniform(sfLoss), rng.New(figSeed(r.seed, -1)))
	if err != nil {
		return err
	}
	var steps time.Duration
	m0 := mallocs()
	for i := 0; i < simRounds; i++ {
		sp := t.begin("engine.round", 0, op)
		e.Round()
		t.end(sp, simN)
		steps += t.durationOf(sp)
	}
	allocs := mallocs() - m0
	r.set("engine.step_ns", float64(steps)/(simN*simRounds))
	r.set("engine.allocs_per_step", float64(allocs)/(simN*simRounds))

	// graph and metrics: the snapshot and degree statistics behind the
	// simulation column.
	sp = t.begin("graph.from_views", 0, op)
	g := graph.FromViews(e.Views())
	t.end(sp, simN)
	r.set("graph.from_views_ms", float64(t.durationOf(sp))/1e6)
	sp = t.begin("metrics.degrees", 0, op)
	deg := metrics.Degrees(g, nil)
	t.end(sp, simN)
	r.set("metrics.degrees_ms", float64(t.durationOf(sp))/1e6)
	r.info("engine.sim_mean_indegree", deg.MeanIn, "count")
	r.ops(1, 0)

	// Untraced passes, then traced ones; the traced passes give the
	// per-figure times.
	var plain, traced latencies
	per := make([]latencies, len(figures))
	for pass, start := 0, time.Now(); pass == 0 || time.Since(start) < r.window/2; pass++ {
		op++
		d, _ := figurePass(r, nil, op, pass)
		plain = append(plain, d)
	}
	for pass, start := 0, time.Now(); pass == 0 || time.Since(start) < r.window/2; pass++ {
		op++
		d, each := figurePass(r, t, op, pass)
		traced = append(traced, d)
		for k := range figures {
			per[k] = append(per[k], each[k])
		}
	}
	for k, f := range figures {
		r.set(f.layer, per[k].quantile(0.5)/1e3)
	}
	r.set("trace.overhead_frac", traced.quantile(0.5)/plain.quantile(0.5)-1)
	return nil
}
