package markov

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Tunables of the chunked CSR step kernel. They are package variables so the
// determinism tests can shrink them; production code leaves the defaults.
// Results depend only on the chain size and the chunk geometry — never on
// the worker count — so a run is bit-for-bit reproducible on any machine.
var (
	// csrChunkRows is the preferred number of rows per accumulation chunk.
	csrChunkRows = 512
	// csrMaxChunks caps the number of chunks (and hence scratch buffers)
	// for very large chains; the chunk size grows instead.
	csrMaxChunks = 32
	// csrParallelMinRows is the chain size above which the chunked kernel
	// (and with it the worker pool) engages. Smaller chains take the plain
	// single-pass kernel: the merge overhead cannot pay for itself.
	csrParallelMinRows = 4096
	// csrWorkers overrides the worker count (0 selects GOMAXPROCS).
	csrWorkers = 0
)

// CSR is a compressed-sparse-row transition matrix: all entries live in two
// flat arrays indexed by rowPtr, giving the power-iteration kernel a linear,
// cache-friendly scan with no per-row slice headers. Build one by finalizing
// a Sparse. The structure (rowPtr, cols) is immutable; the probabilities may
// be rewritten in place via Row by builders that re-weight a fixed sparsity
// pattern.
type CSR struct {
	n      int
	rowPtr []int32
	cols   []int32
	probs  []float64
}

// Finalize compacts s and converts it to CSR form. The Sparse remains valid
// and shares no memory with the result.
func (s *Sparse) Finalize() *CSR {
	s.Compact()
	n := len(s.rows)
	nnz := 0
	for _, row := range s.rows {
		nnz += len(row)
	}
	m := &CSR{
		n:      n,
		rowPtr: make([]int32, n+1),
		cols:   make([]int32, 0, nnz),
		probs:  make([]float64, 0, nnz),
	}
	for i, row := range s.rows {
		m.rowPtr[i] = int32(len(m.cols))
		for _, e := range row {
			m.cols = append(m.cols, int32(e.col))
			m.probs = append(m.probs, e.p)
		}
	}
	m.rowPtr[n] = int32(len(m.cols))
	return m
}

// N returns the number of states.
func (m *CSR) N() int { return m.n }

// ForEach implements Chain, skipping zero-weight slots (a rewritten pattern
// may leave some edges at weight 0).
func (m *CSR) ForEach(row int, fn func(col int, p float64)) {
	for k := m.rowPtr[row]; k < m.rowPtr[row+1]; k++ {
		if m.probs[k] > 0 {
			fn(int(m.cols[k]), m.probs[k])
		}
	}
}

// Row exposes row i's column indices (sorted, do not mutate) and its weight
// slots (mutable). Builders that solve a family of chains over one sparsity
// pattern rewrite the weights in place instead of rebuilding the structure.
func (m *CSR) Row(i int) (cols []int32, probs []float64) {
	return m.cols[m.rowPtr[i]:m.rowPtr[i+1]], m.probs[m.rowPtr[i]:m.rowPtr[i+1]]
}

// rowsPerChunk returns the chunk height for an n-row chain: the preferred
// csrChunkRows, grown so that at most csrMaxChunks chunks exist. It depends
// only on n and the package tunables, which is what makes the chunked
// kernel's floating-point association reproducible.
func rowsPerChunk(n int) int {
	r := csrChunkRows
	if min := (n + csrMaxChunks - 1) / csrMaxChunks; r < min {
		r = min
	}
	if r < 1 {
		r = 1
	}
	return r
}

// csrScratch holds the per-chunk accumulation buffers of one step stream,
// plus each buffer's dirty column range from the previous step (so zeroing
// and merging cost O(bandwidth), not O(n), for banded chains like the
// degree MC). Each Stationary call owns its own scratch, so a CSR may be
// shared by concurrent solvers.
type csrScratch struct {
	bufs     [][]float64
	los, his []int // dirty (touched) column bounds per buffer
}

func (sc *csrScratch) ensure(chunks, n int) {
	for len(sc.bufs) < chunks {
		sc.bufs = append(sc.bufs, make([]float64, n))
		sc.los = append(sc.los, 0)
		sc.his = append(sc.his, 0)
	}
}

// accumRange adds the contributions of rows [lo, hi) to out (which is NOT
// zeroed here): out[col] += dist[i] * P[i, col]. It returns the touched
// column range [cl, ch) (cl >= ch means no column was touched), exploiting
// that each row's columns are sorted.
func (m *CSR) accumRange(lo, hi int, dist, out []float64) (cl, ch int) {
	cl, ch = m.n, 0
	rowPtr := m.rowPtr
	for i := lo; i < hi; i++ {
		p := dist[i]
		if p == 0 {
			continue
		}
		s, e := rowPtr[i], rowPtr[i+1]
		if s == e {
			continue
		}
		cols := m.cols[s:e]
		probs := m.probs[s:e:e]
		if c := int(cols[0]); c < cl {
			cl = c
		}
		if c := int(cols[len(cols)-1]) + 1; c > ch {
			ch = c
		}
		for k, c := range cols {
			out[c] += p * probs[k]
		}
	}
	return cl, ch
}

// accumPlain is accumRange without the touched-range bookkeeping — the
// kernel of the single-pass path, where no merge needs the bounds.
func (m *CSR) accumPlain(dist, out []float64) {
	rowPtr := m.rowPtr
	for i, p := range dist {
		if p == 0 {
			continue
		}
		s, e := rowPtr[i], rowPtr[i+1]
		cols := m.cols[s:e]
		probs := m.probs[s:e:e]
		for k, c := range cols {
			out[c] += p * probs[k]
		}
	}
}

// step computes out = dist * P. Chains below csrParallelMinRows take a plain
// single pass. Larger chains are sharded into fixed row chunks, each
// accumulated into its own buffer (concurrently when workers are available),
// and the buffers are merged in chunk order — a fixed association of
// floating-point additions, so the result is bit-identical whether 1 or 64
// workers ran the chunks. A chunk outside its dirty range contributes an
// exact +0, so skipping it in the merge cannot change any sum.
func (m *CSR) step(dist, out []float64, sc *csrScratch) {
	n := m.n
	if n < csrParallelMinRows {
		for j := range out {
			out[j] = 0
		}
		m.accumPlain(dist, out)
		return
	}
	chunkRows := rowsPerChunk(n)
	chunks := (n + chunkRows - 1) / chunkRows
	workers := csrWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	sc.ensure(chunks, n)
	fill := func(c int) {
		buf := sc.bufs[c]
		for j := sc.los[c]; j < sc.his[c]; j++ {
			buf[j] = 0
		}
		lo := c * chunkRows
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		sc.los[c], sc.his[c] = m.accumRange(lo, hi, dist, buf)
	}
	// merge computes out[a:b] by summing the chunk buffers in chunk order;
	// column ranges partition independent output slots, so splitting the
	// merge across workers cannot change any sum.
	merge := func(a, b int) {
		for j := a; j < b; j++ {
			out[j] = 0
		}
		for c := 0; c < chunks; c++ {
			lo, hi := sc.los[c], sc.his[c]
			if lo < a {
				lo = a
			}
			if hi > b {
				hi = b
			}
			buf := sc.bufs[c]
			for j := lo; j < hi; j++ {
				out[j] += buf[j]
			}
		}
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fill(c)
		}
		merge(0, n)
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fill(c)
			}
		}()
	}
	wg.Wait()
	colsPer := (n + workers - 1) / workers
	var mwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		a := w * colsPer
		b := a + colsPer
		if b > n {
			b = n
		}
		if a >= b {
			break
		}
		mwg.Add(1)
		go func(a, b int) {
			defer mwg.Done()
			merge(a, b)
		}(a, b)
	}
	mwg.Wait()
}
