package degreemc

import (
	"fmt"
	"sync"
	"testing"

	"sendforget/internal/markov"
)

// TestSolveStationaryOracle checks Solve's direct inner solve against power
// iteration, an independent method over an independently built chain: Pi
// must be stationary for BuildChain at the fixed-point field, both at the
// lossy fig6.3 point and on the lossless (24, 0) manifold, a closed class
// of a reducible chain. Power iteration started from Pi must stay within
// 1e-9 of it, and one step may move it by less than 1e-12 in total
// variation.
//
// Result.Field is derived from Pi, while the last outer round solved the
// chain of the previous iterate's field; the two differ by up to OuterTol.
// At the default 1e-9 that leaves a one-step residual of about 2e-11 on the
// manifold, so the step bound is checked on a solve run to OuterTol 1e-12,
// and the default solve is held to the outer tolerance instead.
func TestSolveStationaryOracle(t *testing.T) {
	for _, tc := range []struct {
		par  Params
		opts SolveOptions
	}{
		{Params{S: 40, DL: 18, Loss: 0.01}, SolveOptions{}},
		{Params{S: 24, DL: 0}, SolveOptions{InitOut: 8, InitIn: 8}},
	} {
		for _, outerTol := range []float64{0, 1e-12} {
			opts := tc.opts
			opts.OuterTol = outerTol
			res, err := Solve(tc.par, opts)
			if err != nil {
				t.Fatal(err)
			}
			chain, err := res.Space.BuildChain(res.Field)
			if err != nil {
				t.Fatal(err)
			}
			csr := chain.Finalize()
			stepBound := 1e-12
			if outerTol == 0 {
				stepBound = 1e-9
			}
			if tv := markov.TV(res.Pi, markov.Step(csr, res.Pi)); tv >= stepBound {
				t.Errorf("%+v OuterTol %g: one step moves Pi by TV %v, want < %g", tc.par, outerTol, tv, stepBound)
			}
			ref, _, err := markov.Stationary(csr, res.Pi, 1e-13, 400000)
			if err != nil {
				t.Fatal(err)
			}
			if tv := markov.TV(res.Pi, ref); tv >= 1e-9 {
				t.Errorf("%+v OuterTol %g: power iteration from Pi drifts by TV %v", tc.par, outerTol, tv)
			}
		}
	}
}

// TestSolveCacheDeterministic checks that repeated Solve calls return
// bitwise-identical results and that mutating a returned Result cannot
// corrupt the cache.
func TestSolveCacheDeterministic(t *testing.T) {
	ResetSolveCache()
	par := Params{S: 14, DL: 6, Loss: 0.1}
	r1, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pi) != len(r2.Pi) {
		t.Fatalf("Pi lengths differ: %d vs %d", len(r1.Pi), len(r2.Pi))
	}
	for k := range r1.Pi {
		if r1.Pi[k] != r2.Pi[k] {
			t.Fatalf("cached Pi differs at %d: %x vs %x", k, r1.Pi[k], r2.Pi[k])
		}
	}
	if r1.Field != r2.Field || r1.OuterIterations != r2.OuterIterations {
		t.Fatalf("cached metadata differs: %+v vs %+v", r1, r2)
	}
	// Clobber the first result; a fresh call must be unaffected.
	for k := range r1.Pi {
		r1.Pi[k] = -1
	}
	r1.OutDist[0] = 99
	r1.InDist[0] = 99
	r3, err := Solve(par, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range r2.Pi {
		if r2.Pi[k] != r3.Pi[k] {
			t.Fatalf("cache corrupted by caller mutation at %d", k)
		}
	}
	if r3.OutDist[0] == 99 || r3.InDist[0] == 99 {
		t.Fatal("cache shares marginal slices with callers")
	}
}

// TestSolveConcurrent exercises the cache under concurrent access: identical
// and distinct keys solved from many goroutines must all agree with a
// sequential reference. Run with -race to check the synchronization.
func TestSolveConcurrent(t *testing.T) {
	ResetSolveCache()
	pars := []Params{
		{S: 12, DL: 6, Loss: 0},
		{S: 12, DL: 6, Loss: 0.1},
		{S: 14, DL: 4, Loss: 0.2},
	}
	want := make([]*Result, len(pars))
	for i, par := range pars {
		r, err := Solve(par, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	ResetSolveCache()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		for i, par := range pars {
			wg.Add(1)
			go func(i int, par Params) {
				defer wg.Done()
				r, err := Solve(par, SolveOptions{})
				if err != nil {
					errs <- err
					return
				}
				for k := range r.Pi {
					if r.Pi[k] != want[i].Pi[k] {
						errs <- fmt.Errorf("concurrent Solve(%+v) diverged from sequential reference at state %d", par, k)
						return
					}
				}
			}(i, par)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
