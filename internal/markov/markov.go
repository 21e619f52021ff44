// Package markov provides the finite Markov chain machinery of Section 3.2:
// transition matrices (dense and sparse), stationary distributions by power
// iteration and by direct GTH state reduction, and the ergodicity checks
// (irreducibility via strongly connected components, aperiodicity via the
// cycle-length gcd) that the paper's Lemmas 7.1-7.2 establish for the
// global S&F chain.
package markov

import (
	"fmt"
	"math"
	"slices"
)

// Chain is a row-stochastic transition structure over states 0..N()-1.
// GTH.Solve reads only the off-diagonal entries, up to a common factor, so
// it also accepts the raw rates of a continuous-time chain.
type Chain interface {
	// N returns the number of states.
	N() int
	// ForEach calls fn for every positive transition out of row.
	ForEach(row int, fn func(col int, p float64))
}

// Dense is a dense transition matrix. Use it for small chains (tests, the
// dependence MC of Figure 7.1); the degree MC uses Sparse.
type Dense struct {
	p [][]float64
}

// NewDense returns an n-state chain with all-zero transitions.
func NewDense(n int) *Dense {
	d := &Dense{p: make([][]float64, n)}
	for i := range d.p {
		d.p[i] = make([]float64, n)
	}
	return d
}

// N returns the number of states.
func (d *Dense) N() int { return len(d.p) }

// Set assigns P(i -> j) = p.
func (d *Dense) Set(i, j int, p float64) { d.p[i][j] = p }

// At returns P(i -> j).
func (d *Dense) At(i, j int) float64 { return d.p[i][j] }

// ForEach implements Chain.
func (d *Dense) ForEach(row int, fn func(col int, p float64)) {
	for j, p := range d.p[row] {
		if p > 0 {
			fn(j, p)
		}
	}
}

// Sparse stores per-row adjacency lists of positive transitions.
type Sparse struct {
	rows  [][]entry
	dirty bool
}

type entry struct {
	col int
	p   float64
}

// NewSparse returns an n-state chain with no transitions.
func NewSparse(n int) *Sparse {
	return &Sparse{rows: make([][]entry, n)}
}

// N returns the number of states.
func (s *Sparse) N() int { return len(s.rows) }

// Add accumulates probability p onto transition (i -> j). Multiple Adds to
// the same pair sum, which lets builders enumerate disjoint events
// independently. Add is O(1): duplicates are appended and merged later by
// Compact (called automatically by CloseRows and Finalize), so building a
// row of L entries costs O(L log L) total rather than the O(L^2) of a
// per-Add duplicate scan. Until then, ForEach may report the same column in
// several pieces; every numeric consumer in this package (Step, RowSum,
// Validate) accumulates and is unaffected.
func (s *Sparse) Add(i, j int, p float64) {
	if p == 0 {
		return
	}
	if p < 0 || math.IsNaN(p) {
		panic(fmt.Sprintf("markov: invalid transition probability %v", p))
	}
	if j < 0 || j >= len(s.rows) {
		panic(fmt.Sprintf("markov: column %d outside chain of %d states", j, len(s.rows)))
	}
	s.rows[i] = append(s.rows[i], entry{col: j, p: p})
	s.dirty = true
}

// Compact sorts every row by column and merges duplicate entries, restoring
// the one-entry-per-pair invariant after a sequence of Adds. It is
// idempotent and cheap when nothing was added since the last call. Rows are
// merged through a dense column accumulator, so a row built from L Adds over
// D distinct columns costs O(L + D log D) rather than the O(L^2) of the old
// per-Add duplicate scan.
func (s *Sparse) Compact() {
	if !s.dirty {
		return
	}
	var acc []float64
	var touched []int
	for i, row := range s.rows {
		if len(row) < 2 {
			continue
		}
		sorted := true
		for k := 1; k < len(row); k++ {
			if row[k].col <= row[k-1].col {
				sorted = false
				break
			}
		}
		if sorted {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(s.rows))
		}
		touched = touched[:0]
		for _, e := range row {
			if acc[e.col] == 0 {
				touched = append(touched, e.col)
			}
			acc[e.col] += e.p
		}
		slices.Sort(touched)
		row = row[:0]
		for _, c := range touched {
			row = append(row, entry{col: c, p: acc[c]})
			acc[c] = 0
		}
		s.rows[i] = row
	}
	s.dirty = false
}

// ForEach implements Chain. Before Compact/CloseRows/Finalize, a column that
// received several Adds is reported once per Add.
func (s *Sparse) ForEach(row int, fn func(col int, p float64)) {
	for _, e := range s.rows[row] {
		if e.p > 0 {
			fn(e.col, e.p)
		}
	}
}

// RowSum returns the total outgoing probability of row i.
func (s *Sparse) RowSum(i int) float64 {
	sum := 0.0
	for _, e := range s.rows[i] {
		sum += e.p
	}
	return sum
}

// CloseRows tops up each row's missing probability mass as a self-loop,
// making the chain stochastic. Builders that enumerate only the
// state-changing events call it once at the end (the remainder is exactly
// the chain's self-loop probability). It returns an error if any row
// already exceeds probability 1 beyond tolerance.
func (s *Sparse) CloseRows() error {
	const tol = 1e-9
	s.Compact()
	for i := range s.rows {
		sum := s.RowSum(i)
		if sum > 1+tol {
			return fmt.Errorf("markov: row %d has probability mass %v > 1", i, sum)
		}
		if rem := 1 - sum; rem > 0 {
			s.Add(i, i, rem)
		}
	}
	s.Compact()
	return nil
}

// Validate checks that every row of c sums to 1 within tolerance.
func Validate(c Chain) error {
	const tol = 1e-9
	for i := 0; i < c.N(); i++ {
		sum := 0.0
		bad := false
		c.ForEach(i, func(_ int, p float64) {
			sum += p
			if p < 0 || p > 1+tol {
				bad = true
			}
		})
		if bad || math.Abs(sum-1) > tol {
			return fmt.Errorf("markov: row %d sums to %v", i, sum)
		}
	}
	return nil
}

// Step advances a distribution one transition: out = dist * P.
func Step(c Chain, dist []float64) []float64 {
	out := make([]float64, c.N())
	newStepper(c)(dist, out)
	return out
}

// newStepper returns a reusable out = dist * P kernel for c. CSR chains get
// the chunked (and, above a size threshold, parallel) kernel with its scratch
// buffers allocated once; everything else falls back to stepInto.
func newStepper(c Chain) func(dist, out []float64) {
	if m, ok := c.(*CSR); ok {
		sc := &csrScratch{}
		return func(dist, out []float64) { m.step(dist, out, sc) }
	}
	return func(dist, out []float64) { stepInto(c, dist, out) }
}

// stepInto computes out = dist * P into a caller-provided buffer, zeroing
// it first; the power iteration reuses two buffers to avoid per-step
// allocation. Sparse and Dense chains get closure-free fast paths — the
// generic ForEach path allocates one closure per occupied row per step,
// which dominates the degree-MC solve otherwise.
func stepInto(c Chain, dist, out []float64) {
	for i := range out {
		out[i] = 0
	}
	switch cc := c.(type) {
	case *Sparse:
		for i, p := range dist {
			if p == 0 {
				continue
			}
			for _, e := range cc.rows[i] {
				out[e.col] += p * e.p
			}
		}
	case *CSR:
		cc.accumPlain(dist, out)
	case *Dense:
		for i, p := range dist {
			if p == 0 {
				continue
			}
			row := cc.p[i]
			for j, q := range row {
				out[j] += p * q
			}
		}
	default:
		for i, p := range dist {
			if p == 0 {
				continue
			}
			pi := p
			c.ForEach(i, func(j int, q float64) {
				out[j] += pi * q
			})
		}
	}
}

// Stationary computes the stationary distribution by power iteration from
// init (uniform if nil), stopping when successive distributions are within
// tol in total variation. It returns the distribution and the number of
// iterations used, or an error if maxIter is exhausted.
//
// CSR chains above the parallel size threshold shard each step's rows
// across a worker pool; the per-chunk partial sums are merged in a fixed
// order, so the result is bit-identical to a single-worker run.
func Stationary(c Chain, init []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := c.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("markov: empty chain")
	}
	dist := make([]float64, n)
	if init == nil {
		for i := range dist {
			dist[i] = 1 / float64(n)
		}
	} else {
		if len(init) != n {
			return nil, 0, fmt.Errorf("markov: init length %d != states %d", len(init), n)
		}
		copy(dist, init)
	}
	next := make([]float64, n)
	step := newStepper(c)
	for iter := 1; iter <= maxIter; iter++ {
		step(dist, next)
		if TV(dist, next) < tol {
			return next, iter, nil
		}
		dist, next = next, dist
	}
	return nil, maxIter, fmt.Errorf("markov: power iteration did not converge in %d iterations", maxIter)
}

// TV returns the total-variation distance between two equal-length
// distributions.
func TV(p, q []float64) float64 {
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}
