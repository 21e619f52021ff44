package markov

import (
	"math"
	"strings"
	"testing"

	"sendforget/internal/rng"
)

// relErr returns the largest componentwise relative error of got against
// want, counting an exact match of zeros as no error.
func relErr(got, want []float64) float64 {
	worst := 0.0
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		worst = max(worst, math.Abs(got[i]-want[i])/math.Abs(want[i]))
	}
	return worst
}

// rate is one off-diagonal rate of a test chain.
type rate struct {
	from, to int
	r        float64
}

// rateList is a chain given by a list of raw rates. It implements Chain
// without validating, so tests can present rates a Sparse would refuse.
type rateList struct {
	n    int
	list []rate
}

func (c rateList) N() int { return c.n }

func (c rateList) ForEach(row int, fn func(col int, p float64)) {
	for _, e := range c.list {
		if e.from == row {
			fn(e.to, e.r)
		}
	}
}

// uniformize turns c into a discrete chain with a positive self-loop in
// every row, for power iteration.
func uniformize(c rateList) *Sparse {
	out := make([]float64, c.n)
	for _, e := range c.list {
		out[e.from] += e.r
	}
	w := 0.0
	for _, o := range out {
		w = max(w, o)
	}
	w *= 1.1
	s := NewSparse(c.n)
	for _, e := range c.list {
		s.Add(e.from, e.to, e.r/w)
	}
	if err := s.CloseRows(); err != nil {
		panic(err)
	}
	return s
}

// TestGTHBirthDeath checks a birth–death chain against its closed form
// π_k ∝ Π_{j<k} λ_j/μ_{j+1}, componentwise. The tail spans twenty orders
// of magnitude; GTH keeps even the smallest component to full precision.
func TestGTHBirthDeath(t *testing.T) {
	const n = 30
	c := rateList{n: n}
	want := make([]float64, n)
	want[0] = 1
	for k := 0; k+1 < n; k++ {
		lambda := 2.0
		mu := 1.0 + float64(k)
		c.list = append(c.list, rate{k, k + 1, lambda}, rate{k + 1, k, mu})
		want[k+1] = want[k] * lambda / mu
	}
	total := 0.0
	for _, v := range want {
		total += v
	}
	for k := range want {
		want[k] /= total
	}
	init := make([]float64, n)
	init[n/2] = 1
	pi := make([]float64, n)
	var g GTH
	if err := g.Solve(c, init, pi); err != nil {
		t.Fatal(err)
	}
	if e := relErr(pi, want); e > 1e-13 {
		t.Errorf("componentwise relative error %v against the closed form; pi[n-1]=%v want %v", e, pi[n-1], want[n-1])
	}
}

// transientChain has transient states 0 and 1 draining into the closed
// class {2, 3, 4}; state 5 is never reached from 0.
func transientChain() rateList {
	return rateList{n: 6, list: []rate{
		{0, 1, 1}, {1, 0, 0.5}, {0, 2, 0.25}, {1, 3, 2},
		{2, 3, 1}, {3, 4, 3}, {4, 2, 0.5}, {3, 2, 1}, {4, 3, 0.125},
		{5, 0, 1},
	}}
}

// TestGTHTransientStatesGetNoMass checks that transient and unreachable
// states get exactly zero mass and that the class distribution is the
// limit of power iteration started in a transient state, whether the chain
// is given by raw rates or as the uniformized stochastic matrix.
func TestGTHTransientStatesGetNoMass(t *testing.T) {
	rates := transientChain()
	p := uniformize(rates)
	init := []float64{1, 0, 0, 0, 0, 0}
	ref, _, err := Stationary(p, init, 1e-15, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	var g GTH
	for name, c := range map[string]Chain{"rates": rates, "stochastic": p} {
		pi := make([]float64, c.N())
		if err := g.Solve(c, init, pi); err != nil {
			t.Fatal(name, err)
		}
		for _, k := range []int{0, 1, 5} {
			if pi[k] != 0 {
				t.Errorf("%s: state %d outside the closed class has mass %v", name, k, pi[k])
			}
		}
		if tv := TV(pi, ref); tv > 1e-12 {
			t.Errorf("%s: TV(GTH, power iteration) = %v\nGTH   %v\npower %v", name, tv, pi, ref)
		}
	}
}

// TestGTHRejectsTwoClosedClasses checks that a start from which two closed
// classes are reachable is an error rather than a mixture, and that a start
// reaching only one of them is solved.
func TestGTHRejectsTwoClosedClasses(t *testing.T) {
	// 0 drains into the absorbing state 1 and into the class {2, 3}.
	rates := rateList{n: 4, list: []rate{{0, 1, 1}, {0, 2, 1}, {2, 3, 1}, {3, 2, 2}}}
	pi := make([]float64, 4)
	var g GTH
	err := g.Solve(rates, []float64{1, 0, 0, 0}, pi)
	if err == nil || !strings.Contains(err.Error(), "2 closed classes") {
		t.Fatalf("two reachable closed classes: err = %v", err)
	}
	if err := g.Solve(rates, []float64{0, 0, 0.5, 0.5}, pi); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 2.0 / 3, 1.0 / 3}; relErr(pi, want) > 1e-15 {
		t.Errorf("pi = %v, want %v", pi, want)
	}
	if err := g.Solve(rates, []float64{0, 1, 0, 0}, pi); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 0, 0}; relErr(pi, want) != 0 {
		t.Errorf("absorbing start: pi = %v, want %v", pi, want)
	}
}

// TestGTHRejectsBadInput covers the argument checks.
func TestGTHRejectsBadInput(t *testing.T) {
	var g GTH
	two := []float64{1, 0}
	for name, tc := range map[string]struct {
		c        rateList
		init, pi []float64
	}{
		"empty":         {rateList{}, nil, nil},
		"pi length":     {rateList{2, []rate{{0, 1, 1}}}, two, make([]float64, 3)},
		"no mass":       {rateList{2, []rate{{0, 1, 1}, {1, 0, 1}}}, []float64{0, 0}, make([]float64, 2)},
		"negative rate": {rateList{2, []rate{{0, 1, -1}}}, two, make([]float64, 2)},
		"NaN rate":      {rateList{2, []rate{{0, 1, math.NaN()}}}, two, make([]float64, 2)},
		"out of range":  {rateList{2, []rate{{0, 2, 1}}}, two, make([]float64, 2)},
	} {
		if err := g.Solve(tc.c, tc.init, tc.pi); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// randomRates returns an irreducible chain over n states: a cycle through
// all of them plus extra random edges with rates spread over three orders
// of magnitude.
func randomRates(r *rng.RNG, n, extra int) rateList {
	c := rateList{n: n}
	value := func() float64 { return math.Pow(10, 3*r.Float64()-1) }
	for k := 0; k < n; k++ {
		c.list = append(c.list, rate{k, (k + 1) % n, value()})
	}
	for e := 0; e < extra; e++ {
		c.list = append(c.list, rate{r.Intn(n), r.Intn(n), value()})
	}
	return c
}

// TestGTHPermutationEquivariant checks that relabelling the states permutes
// the solution and nothing else, and that one GTH reused across chains of
// different sizes and bandwidths keeps giving the same answers.
func TestGTHPermutationEquivariant(t *testing.T) {
	r := rng.New(11)
	var g GTH
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		rates := randomRates(r, n, 3*n)
		init := make([]float64, n)
		init[r.Intn(n)] = 1
		pi := make([]float64, n)
		if err := g.Solve(rates, init, pi); err != nil {
			t.Fatal(err)
		}
		perm := r.Perm(n)
		prates := rateList{n: n}
		for _, e := range rates.list {
			prates.list = append(prates.list, rate{perm[e.from], perm[e.to], e.r})
		}
		pinit := make([]float64, n)
		want := make([]float64, n)
		for k := range init {
			pinit[perm[k]] = init[k]
			want[perm[k]] = pi[k]
		}
		got := make([]float64, n)
		if err := g.Solve(prates, pinit, got); err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > 1e-12 {
			t.Fatalf("trial %d (n=%d): permuted solve differs by relative %v", trial, n, e)
		}
	}
}

// TestGTHResidualCheckCatchesFaults plants two faults and requires the
// global-balance check to reject both: a perturbed solution, and a solve
// that lost one band entry between filling and elimination.
func TestGTHResidualCheckCatchesFaults(t *testing.T) {
	r := rng.New(5)
	const n = 40
	rates := randomRates(r, n, 4*n)
	init := make([]float64, n)
	init[0] = 1
	pi := make([]float64, n)
	var g GTH
	if err := g.Solve(rates, init, pi); err != nil {
		t.Fatal(err)
	}

	// Fault 1: move a part in a million of the largest component's mass.
	top := 0
	for k := range pi {
		if pi[k] > pi[top] {
			top = k
		}
	}
	bad := append([]float64(nil), pi...)
	bad[top] *= 1 + 1e-6
	if err := g.check(bad); err == nil {
		t.Error("residual check accepted a perturbed solution")
	}
	if err := g.check(pi); err != nil {
		t.Fatalf("residual check rejected the true solution: %v", err)
	}

	// Fault 2: drop an off-diagonal band entry before elimination, for the
	// first few entries in turn. An elimination that breaks down instead
	// is a rejection too.
	g.fill()
	dropped := 0
	for idx := 0; dropped < 3 && idx < len(g.band); idx++ {
		if idx%g.w == g.p || g.band[idx] == 0 {
			continue
		}
		g.band[idx] = 0
		dropped++
		if g.reduce() == nil {
			out := make([]float64, n)
			g.expand(out)
			if err := g.check(out); err == nil {
				t.Errorf("dropping band entry %d passed the residual check", idx)
			}
		}
		g.fill()
	}
	if dropped == 0 {
		t.Fatal("no band entry to drop")
	}
}
