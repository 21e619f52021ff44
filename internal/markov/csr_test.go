package markov

import (
	"runtime"
	"testing"

	"sendforget/internal/rng"
)

// buildDenseRows constructs an n-state chain whose rows each receive perRow
// Adds with many duplicate columns — the access pattern of the global-chain
// and degree-MC builders, which enumerate events independently and rely on
// Add to accumulate.
func buildDenseRows(n, perRow int, seed int64) *Sparse {
	r := rng.New(seed)
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			// Half the column range: every other Add hits an existing entry.
			s.Add(i, r.Intn(n/2+1), 1/float64(2*perRow))
		}
	}
	return s
}

// randomChain builds a random stochastic Sparse chain with duplicate Adds
// sprinkled in, plus a normalized random distribution over its states.
func randomChain(r *rng.RNG, n int) (*Sparse, []float64) {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		entries := 1 + r.Intn(5)
		weights := make([]float64, entries)
		sum := 0.0
		for k := range weights {
			weights[k] = r.Float64() + 0.01
			sum += weights[k]
		}
		for k := range weights {
			col := r.Intn(n)
			p := weights[k] / sum
			if r.Bernoulli(0.3) {
				// Split the mass over two Adds to exercise accumulation.
				s.Add(i, col, p/2)
				s.Add(i, col, p-p/2)
			} else {
				s.Add(i, col, p)
			}
		}
	}
	dist := make([]float64, n)
	sum := 0.0
	for i := range dist {
		dist[i] = r.Float64()
		sum += dist[i]
	}
	for i := range dist {
		dist[i] /= sum
	}
	return s, dist
}

func TestFinalizeDedupAndSort(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 2, 0.25)
	s.Add(0, 1, 0.25)
	s.Add(0, 2, 0.25)
	s.Add(0, 0, 0.25)
	s.Add(1, 1, 1)
	s.Add(2, 0, 1)
	m := s.Finalize()
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	cols, probs := m.Row(0)
	if len(cols) != 3 {
		t.Fatalf("row 0 has %d entries after dedup, want 3", len(cols))
	}
	wantCols := []int32{0, 1, 2}
	wantP := []float64{0.25, 0.25, 0.5}
	for k := range cols {
		if cols[k] != wantCols[k] || !almostEqual(probs[k], wantP[k], 1e-15) {
			t.Errorf("row 0 slot %d = (%d, %v), want (%d, %v)", k, cols[k], probs[k], wantCols[k], wantP[k])
		}
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestCSRMatchesSparseStep is the property test: for random chains (with
// duplicate Adds), the finalized CSR and the original Sparse agree on Step.
func TestCSRMatchesSparseStep(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		s, dist := randomChain(r, n)
		m := s.Finalize()
		got := Step(m, dist)
		want := Step(s, dist)
		for j := range want {
			if !almostEqual(got[j], want[j], 1e-12) {
				t.Fatalf("trial %d: Step differs at %d: csr %v sparse %v", trial, j, got[j], want[j])
			}
		}
	}
}

// withChunkGeometry shrinks the chunk tunables so small test chains exercise
// the chunked kernel, restoring the defaults afterwards.
func withChunkGeometry(t *testing.T, chunkRows, minRows, workers int, fn func()) {
	t.Helper()
	oldChunk, oldMin, oldWorkers := csrChunkRows, csrParallelMinRows, csrWorkers
	csrChunkRows, csrParallelMinRows, csrWorkers = chunkRows, minRows, workers
	defer func() { csrChunkRows, csrParallelMinRows, csrWorkers = oldChunk, oldMin, oldWorkers }()
	fn()
}

// TestChunkedStepBitIdentical asserts the tentpole determinism guarantee:
// the chunked kernel produces bit-identical output with 1 worker and with
// many, because partial sums merge in fixed chunk order.
func TestChunkedStepBitIdentical(t *testing.T) {
	r := rng.New(7)
	s, dist := randomChain(r, 700)
	m := s.Finalize()
	outs := make([][]float64, 0, 3)
	for _, workers := range []int{1, 4, 7} {
		withChunkGeometry(t, 64, 128, workers, func() {
			out := make([]float64, m.N())
			sc := &csrScratch{}
			m.step(dist, out, sc)
			outs = append(outs, out)
		})
	}
	for w := 1; w < len(outs); w++ {
		for j := range outs[0] {
			if outs[0][j] != outs[w][j] {
				t.Fatalf("worker-count variant %d differs at %d: %x vs %x", w, j, outs[0][j], outs[w][j])
			}
		}
	}
}

// TestStationaryCSRParallelMatchesSequential runs the full power iteration
// through the chunked kernel with 1 and with several workers and requires a
// bit-identical stationary distribution.
func TestStationaryCSRParallelMatchesSequential(t *testing.T) {
	r := rng.New(21)
	s, _ := randomChain(r, 900)
	// Make the chain ergodic (cycle edges connect, self-loops deperiodize)
	// and renormalize each row to a distribution.
	for i := 0; i < s.N(); i++ {
		s.Add(i, (i+1)%s.N(), 0.05)
		s.Add(i, i, 0.05)
	}
	s.Compact()
	for i := range s.rows {
		sum := s.RowSum(i)
		for k := range s.rows[i] {
			s.rows[i][k].p /= sum
		}
	}
	m := s.Finalize()
	var seq, par []float64
	withChunkGeometry(t, 64, 128, 1, func() {
		pi, _, err := Stationary(m, nil, 1e-10, 100000)
		if err != nil {
			t.Fatal(err)
		}
		seq = pi
	})
	withChunkGeometry(t, 64, 128, 8, func() {
		pi, _, err := Stationary(m, nil, 1e-10, 100000)
		if err != nil {
			t.Fatal(err)
		}
		par = pi
	})
	for j := range seq {
		if seq[j] != par[j] {
			t.Fatalf("stationary differs at state %d: %x vs %x", j, seq[j], par[j])
		}
	}
}

// TestCSRRowRewrite checks the in-place weight rewrite path: zero the
// weights, write new ones, and step correctly.
func TestCSRRowRewrite(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 0.5)
	s.Add(0, 1, 0.5)
	s.Add(1, 0, 0.5)
	s.Add(1, 1, 0.5)
	m := s.Finalize()
	// Rewrite to the (0.3, 0.6) two-state chain.
	_, p0 := m.Row(0)
	p0[0], p0[1] = 0.7, 0.3
	_, p1 := m.Row(1)
	p1[0], p1[1] = 0.6, 0.4
	pi, _, err := Stationary(m, nil, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pi[0], 2.0/3.0, 1e-9) || !almostEqual(pi[1], 1.0/3.0, 1e-9) {
		t.Errorf("stationary after rewrite = %v, want [2/3 1/3]", pi)
	}
}

func TestRowsPerChunkDeterministic(t *testing.T) {
	// The chunk geometry must not depend on the machine.
	if g := runtime.GOMAXPROCS(0); g < 1 {
		t.Fatalf("GOMAXPROCS = %d", g)
	}
	if got := rowsPerChunk(100); got != csrChunkRows {
		t.Errorf("rowsPerChunk(100) = %d, want %d", got, csrChunkRows)
	}
	// Very large chains grow the chunk instead of the chunk count.
	n := csrChunkRows * csrMaxChunks * 3
	if got := rowsPerChunk(n); (n+got-1)/got > csrMaxChunks {
		t.Errorf("rowsPerChunk(%d) = %d exceeds csrMaxChunks chunks", n, got)
	}
}

func BenchmarkSparseChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := buildDenseRows(400, 400, 7)
		if err := s.CloseRows(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinalize(b *testing.B) {
	s := buildDenseRows(400, 400, 7)
	if err := s.CloseRows(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Finalize()
	}
}

func benchmarkStep(b *testing.B, c Chain, n int) {
	b.Helper()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = 1 / float64(n)
	}
	out := make([]float64, n)
	step := newStepper(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(dist, out)
	}
}

func BenchmarkStepSparse(b *testing.B) {
	s, _ := randomChain(rng.New(3), 5000)
	benchmarkStep(b, s, 5000)
}

// BenchmarkStepCSR measures the plain (single-pass) CSR kernel.
func BenchmarkStepCSR(b *testing.B) {
	old := csrParallelMinRows
	csrParallelMinRows = 1 << 30
	defer func() { csrParallelMinRows = old }()
	s, _ := randomChain(rng.New(3), 5000)
	benchmarkStep(b, s.Finalize(), 5000)
}

// BenchmarkStepCSRChunked measures the chunked kernel on the same chain — a
// random (full-bandwidth) chain is its worst case, since every chunk's dirty
// range spans all columns.
func BenchmarkStepCSRChunked(b *testing.B) {
	old := csrParallelMinRows
	csrParallelMinRows = 1
	defer func() { csrParallelMinRows = old }()
	s, _ := randomChain(rng.New(3), 5000)
	benchmarkStep(b, s.Finalize(), 5000)
}
