package experiments

import (
	"errors"
	"fmt"
	"testing"
)

func TestSweepOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := Sweep(9, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Sweep(8, workers, func(i int) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3's error", workers, err)
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(0, 4, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || got != nil {
		t.Fatalf("Sweep(0) = %v, %v", got, err)
	}
}

// withSweepWorkers pins the package worker pool size for one test body.
func withSweepWorkers(t *testing.T, workers int, fn func()) {
	t.Helper()
	old := sweepWorkers
	sweepWorkers = workers
	defer func() { sweepWorkers = old }()
	fn()
}

// TestFig63ParallelDeterministic renders the Figure 6.3 report with a
// single-worker and a multi-worker sweep and requires byte-identical text:
// per-point seeds derive from the input index, so the worker schedule must
// not leak into the output.
func TestFig63ParallelDeterministic(t *testing.T) {
	params := Fig63Params{
		S: 12, DL: 4,
		LossRates: []float64{0, 0.05, 0.1},
		SimN:      120, SimRounds: 40,
	}
	render := func() string {
		r, err := Fig63(params)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	var seq, par string
	withSweepWorkers(t, 1, func() { seq = render() })
	withSweepWorkers(t, 4, func() { par = render() })
	if seq != par {
		t.Fatalf("fig6.3 report differs between 1 and 4 sweep workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// TestAblationDLParallelDeterministic covers the filtered sweep: points
// skipped by the dL <= s-6 guard must keep their original-index seeds.
func TestAblationDLParallelDeterministic(t *testing.T) {
	params := AblationDLParams{
		N: 120, S: 16,
		DLs:    []int{0, 4, 8, 14}, // 14 > 16-6 is filtered out
		Rounds: 60,
	}
	render := func() string {
		r, err := AblationDL(params)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	var seq, par string
	withSweepWorkers(t, 1, func() { seq = render() })
	withSweepWorkers(t, 3, func() { par = render() })
	if seq != par {
		t.Fatalf("abl2 report differs between 1 and 3 sweep workers:\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s", seq, par)
	}
}

// TestFig61StrideOne is the regression test for the indegree-table loop: a
// Stride of 1 used to floor the indegree step to 0 and hang forever.
func TestFig61StrideOne(t *testing.T) {
	r, err := Fig61(Fig61Params{S: 12, Stride: 1, SimN: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) < 2 {
		t.Fatalf("fig6.1 produced %d tables, want at least 2", len(r.Tables))
	}
	inT := r.Tables[1]
	if len(inT.Rows) == 0 {
		t.Fatal("indegree table is empty")
	}
	if len(inT.Rows) > 13 {
		t.Fatalf("indegree table has %d rows for s=12, want at most 13", len(inT.Rows))
	}
}

// TestFig64ParallelDeterministic: the (loss rate, leaver) runs fan out over
// the sweep pool, and the decay curves must average to the same bytes
// however many workers ran them.
func TestFig64ParallelDeterministic(t *testing.T) {
	params := Fig64Params{
		N: 80, S: 12, DL: 4, LossRates: []float64{0, 0.05},
		Rounds: 60, Leavers: 3, Checkpoint: 10, Seed: 5,
	}
	render := func() string {
		r, err := Fig64(params)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	var seq, par string
	withSweepWorkers(t, 1, func() { seq = render() })
	withSweepWorkers(t, 4, func() { par = render() })
	if seq != par {
		t.Fatalf("fig6.4 report differs between 1 and 4 sweep workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// TestCor614ParallelDeterministic: the joiner runs fan out over the sweep
// pool; the table rows must come back in joiner order with the same bytes.
func TestCor614ParallelDeterministic(t *testing.T) {
	params := Cor614Params{N: 100, S: 12, DL: 6, Joiners: 3, Seed: 7}
	render := func() string {
		r, err := Cor614(params)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	var seq, par string
	withSweepWorkers(t, 1, func() { seq = render() })
	withSweepWorkers(t, 4, func() { par = render() })
	if seq != par {
		t.Fatalf("cor6.14 report differs between 1 and 4 sweep workers:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}
