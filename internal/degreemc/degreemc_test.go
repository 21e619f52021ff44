package degreemc

import (
	"math"
	"testing"

	"sendforget/internal/analysis"
	"sendforget/internal/markov"
	"sendforget/internal/stats"
)

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name string
		par  Params
		ok   bool
	}{
		{"valid", Params{S: 12, DL: 2}, true},
		{"paper fig 6.3", Params{S: 40, DL: 18, Loss: 0.05}, true},
		{"odd s", Params{S: 13, DL: 2}, false},
		{"s too small", Params{S: 4, DL: 0}, false},
		{"dL odd", Params{S: 12, DL: 3}, false},
		{"dL too big", Params{S: 12, DL: 8}, false},
		{"loss 1", Params{S: 12, DL: 2, Loss: 1}, false},
		{"negative loss", Params{S: 12, DL: 2, Loss: -0.1}, false},
		{"cap below s", Params{S: 12, DL: 2, SumCap: 6}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSpace(tt.par)
			if (err == nil) != tt.ok {
				t.Errorf("NewSpace(%+v) error = %v, want ok=%v", tt.par, err, tt.ok)
			}
		})
	}
}

func TestSpaceEnumeration(t *testing.T) {
	sp, err := NewSpace(Params{S: 8, DL: 2, SumCap: 12})
	if err != nil {
		t.Fatal(err)
	}
	// d in {2,4,6,8}; i in 0..(12-d)/2: 6+5+4+3 = 18 states.
	if sp.Len() != 18 {
		t.Fatalf("Len = %d, want 18", sp.Len())
	}
	for _, st := range sp.States() {
		if st.Out%2 != 0 || st.Out < 2 || st.Out > 8 {
			t.Errorf("invalid outdegree in state %+v", st)
		}
		if st.SumDegree() > 12 || st.In < 0 {
			t.Errorf("invalid state %+v", st)
		}
		idx, ok := sp.Index(st)
		if !ok || sp.States()[idx] != st {
			t.Errorf("index roundtrip broken for %+v", st)
		}
	}
	for _, st := range []State{
		{Out: 3, In: 0},  // odd
		{Out: 2, In: 99}, // over the cap
		{Out: 0, In: 1},  // below dL
		{Out: 10, In: 0}, // above s
		{Out: 4, In: -1},
	} {
		if _, ok := sp.Index(st); ok {
			t.Errorf("state %+v outside the space indexed", st)
		}
	}
}

func TestDeriveField(t *testing.T) {
	sp, err := NewSpace(Params{S: 8, DL: 2, SumCap: 24})
	if err != nil {
		t.Fatal(err)
	}
	rho := make([]float64, sp.Len())
	// Point mass at (4, 2): senders all have outdegree 4, nobody full.
	k, ok := sp.Index(State{Out: 4, In: 2})
	if !ok {
		t.Fatal("state missing")
	}
	rho[k] = 1
	f, err := sp.DeriveField(rho)
	if err != nil {
		t.Fatal(err)
	}
	if f.Gap != 3 {
		t.Errorf("Gap = %v, want 3 (= d-1)", f.Gap)
	}
	if f.PDup != 0 {
		t.Errorf("PDup = %v, want 0 (out != dL)", f.PDup)
	}
	if f.PFull != 0 {
		t.Errorf("PFull = %v, want 0", f.PFull)
	}
	// Point mass at (8, 1): everyone full.
	rho = make([]float64, sp.Len())
	k, _ = sp.Index(State{Out: 8, In: 1})
	rho[k] = 1
	f, err = sp.DeriveField(rho)
	if err != nil {
		t.Fatal(err)
	}
	if f.PFull != 1 {
		t.Errorf("PFull = %v, want 1", f.PFull)
	}
	// Point mass at threshold (2, 1): all senders duplicate.
	rho = make([]float64, sp.Len())
	k, _ = sp.Index(State{Out: 2, In: 1})
	rho[k] = 1
	f, err = sp.DeriveField(rho)
	if err != nil {
		t.Fatal(err)
	}
	if f.PDup != 1 {
		t.Errorf("PDup = %v, want 1 (out == dL)", f.PDup)
	}
	if _, err := sp.DeriveField(rho[:3]); err == nil {
		t.Error("accepted wrong-length rho")
	}
}

func TestChainIsStochasticAndErgodic(t *testing.T) {
	sp, err := NewSpace(Params{S: 8, DL: 2, Loss: 0.05, SumCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	f := Field{PFull: 0.05, Gap: 4, PDup: 0.1}
	chain, err := sp.BuildChain(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := markov.Validate(chain); err != nil {
		t.Fatal(err)
	}
	if !markov.IsErgodic(chain) {
		t.Error("degree chain not ergodic under positive loss and mixing field")
	}
}

func TestTransitionsSumDegreeOnManifold(t *testing.T) {
	// With loss=0, dL=0, and PFull=0, transitions out of states on the
	// Lemma 6.2 manifold (sum degree <= s, so no view can be full while
	// holding in-edges) preserve the sum degree: initiator (d-2, i+1),
	// target (d+2, i-1), payload self-loops. States off the manifold (a
	// full view with in-edges) legitimately shed in-edges via deletions.
	sp, err := NewSpace(Params{S: 12, DL: 0, Loss: 0})
	if err != nil {
		t.Fatal(err)
	}
	f := Field{PFull: 0, Gap: 4, PDup: 0}
	for _, tr := range sp.Transitions(f) {
		if tr.From.SumDegree() <= 12 && tr.From.SumDegree() != tr.To.SumDegree() {
			t.Fatalf("on-manifold lossless transition %+v -> %+v changes sum degree", tr.From, tr.To)
		}
		if tr.Kind == Atomic && tr.From.SumDegree() != tr.To.SumDegree() {
			t.Fatalf("atomic transition %+v -> %+v changes sum degree", tr.From, tr.To)
		}
	}
}

func TestTransitionsKindsUnderLoss(t *testing.T) {
	sp, err := NewSpace(Params{S: 12, DL: 2, Loss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	f := Field{PFull: 0.05, Gap: 4, PDup: 0.1}
	var atomic, nonAtomic int
	for _, tr := range sp.Transitions(f) {
		switch tr.Kind {
		case Atomic:
			atomic++
			// Atomic transitions preserve the sum degree.
			if tr.From.SumDegree() != tr.To.SumDegree() {
				t.Fatalf("atomic transition %+v -> %+v changes sum degree", tr.From, tr.To)
			}
		case NonAtomic:
			nonAtomic++
		}
		if tr.Rate <= 0 {
			t.Fatalf("non-positive rate in %+v", tr)
		}
	}
	if atomic == 0 || nonAtomic == 0 {
		t.Errorf("expected both kinds: atomic=%d nonAtomic=%d", atomic, nonAtomic)
	}
}

func TestSolveLemma63MeanOnManifold(t *testing.T) {
	// No loss, dL=0, initial sum degree dm on the manifold: the stationary
	// means must be dm/3 (Lemma 6.3). Use a small dm for speed.
	par := Params{S: 24, DL: 0}
	res, err := Solve(par, SolveOptions{InitOut: 8, InitIn: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanOut()-8) > 0.15 {
		t.Errorf("mean outdegree = %v, want dm/3 = 8", res.MeanOut())
	}
	if math.Abs(res.MeanIn()-8) > 0.15 {
		t.Errorf("mean indegree = %v, want dm/3 = 8", res.MeanIn())
	}
	// The stationary distribution must stay on the ds = 24 manifold.
	offManifold := 0.0
	for k, st := range res.Space.States() {
		if st.SumDegree() != 24 {
			offManifold += res.Pi[k]
		}
	}
	if offManifold > 1e-6 {
		t.Errorf("probability off the sum-degree manifold: %v", offManifold)
	}
	if res.DupProb != 0 {
		t.Errorf("DupProb = %v on lossless dL=0 manifold", res.DupProb)
	}
}

func TestSolveMatchesAnalyticalApproximation(t *testing.T) {
	// Figure 6.1 (scaled down for test speed): the degree-MC outdegree
	// distribution should be close in shape to the Eq. 6.1 approximation.
	par := Params{S: 24, DL: 0}
	res, err := Solve(par, SolveOptions{InitOut: 8, InitIn: 8})
	if err != nil {
		t.Fatal(err)
	}
	anal, err := analysis.OutdegreeDist(24)
	if err != nil {
		t.Fatal(err)
	}
	got := res.OutDist
	if tv := stats.TotalVariation(got, anal); tv > 0.12 {
		t.Errorf("TV(markov, analytical) = %v, want <= 0.12", tv)
	}
	// Means agree tightly.
	if math.Abs(stats.DistMean(got)-stats.DistMean(anal)) > 0.3 {
		t.Errorf("means differ: markov %v analytical %v", stats.DistMean(got), stats.DistMean(anal))
	}
}

func TestSolveLemma64OutdegreeDecreasesWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("degree MC solve at s=16 in short mode")
	}
	par0 := Params{S: 16, DL: 6}
	par5 := Params{S: 16, DL: 6, Loss: 0.05}
	par10 := Params{S: 16, DL: 6, Loss: 0.10}
	r0, err := Solve(par0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Solve(par5, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Solve(par10, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(r0.MeanOut() > r5.MeanOut() && r5.MeanOut() > r10.MeanOut()) {
		t.Errorf("expected outdegree decreasing in loss: %v, %v, %v",
			r0.MeanOut(), r5.MeanOut(), r10.MeanOut())
	}
	// Outdegree stays strictly above dL even under heavy loss (Section
	// 6.4: "it stays significantly above dL").
	if r10.MeanOut() <= float64(par10.DL)+0.5 {
		t.Errorf("mean outdegree %v collapsed to dL=%d", r10.MeanOut(), par10.DL)
	}
}

func TestSolveLemma67DuplicationBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("degree MC solve in short mode")
	}
	// In steady state: dup = l + del (Lemma 6.6), hence l <= dup and, with
	// delta the lossless duplication probability, dup <= l + delta for
	// the thresholds chosen by the Section 6.3 rule. Use a configuration
	// with comfortable slack.
	l := 0.05
	res, err := Solve(Params{S: 16, DL: 6, Loss: l}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DupProb < l-1e-3 {
		t.Errorf("DupProb %v below loss rate %v (violates Lemma 6.6)", res.DupProb, l)
	}
	// Lemma 6.6 exactly: dup = l*(stay) + del ... verify the balance
	// dup ~ l + del within modeling tolerance.
	if math.Abs(res.DupProb-(l+res.DelProb)) > 0.02 {
		t.Errorf("dup %v vs l+del %v: Lemma 6.6 balance violated", res.DupProb, l+res.DelProb)
	}
}

func TestSolveRejectsBadInit(t *testing.T) {
	if _, err := Solve(Params{S: 12, DL: 2}, SolveOptions{InitOut: 3, InitIn: 1}); err == nil {
		t.Error("accepted odd initial outdegree")
	}
	if _, err := Solve(Params{S: 12, DL: 2}, SolveOptions{InitOut: 2, InitIn: 500}); err == nil {
		t.Error("accepted initial state above cap")
	}
}

func TestTransientJoinerIntegration(t *testing.T) {
	// A joiner starts at (dL, 0) in a steady-state environment (Section
	// 6.5). Its expected outdegree and indegree must rise monotonically
	// (within numerical wiggle) toward the steady-state means.
	par := Params{S: 16, DL: 6, Loss: 0.02}
	res, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := res.Space.Transient(res.Field, State{Out: par.DL, In: 0}, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 21 {
		t.Fatalf("trajectory has %d points, want 21", len(traj))
	}
	if traj[0].MeanOut != float64(par.DL) || traj[0].MeanIn != 0 {
		t.Fatalf("start point = %+v, want (dL, 0)", traj[0])
	}
	last := traj[len(traj)-1]
	if last.MeanIn < 0.7*res.MeanIn() {
		t.Errorf("indegree after 200 rounds = %v, want near steady %v", last.MeanIn, res.MeanIn())
	}
	if last.MeanOut < 0.8*res.MeanOut() {
		t.Errorf("outdegree after 200 rounds = %v, want near steady %v", last.MeanOut, res.MeanOut())
	}
	// Broad monotonicity: indegree never drops by more than noise.
	for i := 1; i < len(traj); i++ {
		if traj[i].MeanIn < traj[i-1].MeanIn-0.2 {
			t.Errorf("indegree dipped at %v: %v -> %v", traj[i].Round, traj[i-1].MeanIn, traj[i].MeanIn)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	sp, err := NewSpace(Params{S: 12, DL: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := Field{Gap: 4}
	if _, err := sp.Transient(f, State{Out: 2, In: 0}, -1, 5); err == nil {
		t.Error("accepted negative rounds")
	}
	if _, err := sp.Transient(f, State{Out: 2, In: 0}, 10, 0); err == nil {
		t.Error("accepted zero samples")
	}
	if _, err := sp.Transient(f, State{Out: 3, In: 0}, 10, 5); err == nil {
		t.Error("accepted invalid start state")
	}
}

func TestSumCapInsensitivity(t *testing.T) {
	// The paper: "We verified that the bound does not affect our results by
	// recomputing part of the results with higher bounds." Reproduce that
	// verification: the stationary marginals with the default 3s cap and a
	// 4s cap must agree.
	if testing.Short() {
		t.Skip("two solves in short mode")
	}
	par3 := Params{S: 16, DL: 6, Loss: 0.05}
	par4 := Params{S: 16, DL: 6, Loss: 0.05, SumCap: 4 * 16}
	r3, err := Solve(par3, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Solve(par4, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// At s=16 a little mass sits near the 3s boundary (the paper's s >= 40
	// pushes it further out); "does not affect our results" means the
	// marginals agree to well under a percent.
	if tv := stats.TotalVariation(r3.OutDist, r4.OutDist); tv > 0.01 {
		t.Errorf("outdegree dist sensitive to sum cap: TV %v", tv)
	}
	if tv := stats.TotalVariation(r3.InDist, r4.InDist); tv > 0.01 {
		t.Errorf("indegree dist sensitive to sum cap: TV %v", tv)
	}
	if math.Abs(r3.MeanIn()-r4.MeanIn()) > 0.1 {
		t.Errorf("mean indegree sensitive to cap: %v vs %v", r3.MeanIn(), r4.MeanIn())
	}
}
