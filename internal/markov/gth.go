package markov

import (
	"fmt"
	"math"
)

// gthResidualTol bounds the global-balance residual ‖πQ‖₁ of an accepted
// solution, relative to the total probability flow Σ_i π_i q_i. Summing the
// flows alone leaves a residual of a few unit roundoffs (2.2e-16) per unit
// of flow, and GTH's componentwise error adds a small multiple of that (the
// degree-MC solves measure about 2e-16); a wrong rate or a wrong component
// shows up many orders of magnitude above.
const gthResidualTol = 1e-12

// GTH is a direct stationary solver: Grassmann–Taksar–Heyman state reduction
// on a band-stored matrix of raw rates. GTH forms every intermediate value
// from sums, products and quotients of non-negative numbers, never a
// difference, so each component of the result is accurate to a small
// multiple of the unit roundoff however small it is. It needs no tolerance
// and no iteration cap. Eliminating the highest-numbered state only fills in
// entries inside the band, so a class of m states with lower and upper
// bandwidths p and q costs O(m·p·q) time and O(m·(p+q)) space: callers
// should number states so that transitions join nearby indices.
//
// A GTH owns its scratch, grows it on demand and reuses it across Solve
// calls, so one GTH serves a sequence of chains over one state space
// without reallocating. It is not safe for concurrent use.
type GTH struct {
	seen    []bool    // reached from init's support
	queue   []int32   // reached states in visit order
	lo, hi  []int32   // reached state -> its range in to and rate
	to      []int32   // recorded off-diagonal rates: targets
	rate    []float64 // and values
	scc     tarjan
	open    []bool    // per SCC: some edge leaves it
	members []int32   // class members in increasing state order
	pos     []int32   // member -> position in the class
	p, w    int       // lower bandwidth, band row width
	band    []float64 // class rate matrix; row r holds columns [r-p, r-p+w)
	x       []float64 // unnormalised π over the class, then residual flows
}

// Solve writes into pi the stationary distribution of c restricted to the
// closed communicating class reachable from the support of init: the limit
// that power iteration started from init converges to. Every state outside
// the class, transient or unreachable, gets exactly zero mass. Only the
// rows of reachable states are read.
//
// Solve reads c's off-diagonal entries as transition rates and needs them
// only up to a common factor, so c may be a stochastic matrix or the raw
// rates of a continuous-time chain whose rows do not sum to one; self-loops
// are ignored.
//
// Solve returns an error if init has no positive entry, if a rate is
// negative, NaN or names a state outside the chain, or if two or more
// closed classes are reachable (the limit would then depend on absorption
// probabilities; Solve never returns such a mixture). It also rejects any
// solution whose global-balance residual ‖πQ‖₁ exceeds gthResidualTol of
// the total probability flow.
func (g *GTH) Solve(c Chain, init, pi []float64) error {
	n := c.N()
	if n == 0 {
		return fmt.Errorf("markov: empty chain")
	}
	if len(init) != n || len(pi) != n {
		return fmt.Errorf("markov: init length %d and pi length %d != states %d", len(init), len(pi), n)
	}
	if err := g.explore(c, init); err != nil {
		return err
	}
	if err := g.closedClass(n, init); err != nil {
		return err
	}
	g.fill()
	if err := g.reduce(); err != nil {
		return err
	}
	g.expand(pi)
	return g.check(pi)
}

// explore records the positive off-diagonal rates of every state reachable
// from init's support, reading each of their rows once, breadth first.
func (g *GTH) explore(c Chain, init []float64) error {
	n := len(init)
	g.seen = resize(g.seen, n)
	clear(g.seen)
	g.lo = resize(g.lo, n)
	g.hi = resize(g.hi, n)
	g.queue, g.to, g.rate = g.queue[:0], g.to[:0], g.rate[:0]
	for v, p := range init {
		if p > 0 {
			g.seen[v] = true
			g.queue = append(g.queue, int32(v))
		}
	}
	if len(g.queue) == 0 {
		return fmt.Errorf("markov: initial distribution has no positive mass")
	}
	var (
		from int
		err  error
	)
	record := func(col int, r float64) {
		switch {
		case err != nil:
		case col < 0 || col >= n:
			err = fmt.Errorf("markov: rate %d -> %d outside chain of %d states", from, col, n)
		case r < 0 || math.IsNaN(r):
			err = fmt.Errorf("markov: invalid rate %v on %d -> %d", r, from, col)
		case r > 0 && col != from:
			g.to = append(g.to, int32(col))
			g.rate = append(g.rate, r)
		}
	}
	for head := 0; head < len(g.queue); head++ {
		from = int(g.queue[head])
		g.lo[from] = int32(len(g.to))
		c.ForEach(from, record)
		if err != nil {
			return err
		}
		g.hi[from] = int32(len(g.to))
		for _, v := range g.to[g.lo[from]:g.hi[from]] {
			if !g.seen[v] {
				g.seen[v] = true
				g.queue = append(g.queue, v)
			}
		}
	}
	return nil
}

// succ returns the recorded successors of a reached state.
func (g *GTH) succ(v int32) []int32 { return g.to[g.lo[v]:g.hi[v]] }

// closedClass finds the one closed communicating class among the reached
// states and numbers its members in increasing state order.
func (g *GTH) closedClass(n int, init []float64) error {
	comp, k := g.scc.run(n, g.succ, func(v int) bool { return init[v] > 0 })
	// A component is closed when no edge leaves it. Every successor of a
	// reached state is reached, so comp is defined at both ends.
	g.open = resize(g.open, k)
	clear(g.open)
	for _, u := range g.queue {
		for _, v := range g.succ(u) {
			if comp[v] != comp[u] {
				g.open[comp[u]] = true
				break
			}
		}
	}
	closed, nclosed := int32(-1), 0
	for c, open := range g.open {
		if !open {
			closed = int32(c)
			nclosed++
		}
	}
	if nclosed != 1 {
		return fmt.Errorf("markov: %d closed classes reachable from the initial distribution, want 1", nclosed)
	}
	// pos is read only at members: a closed class has no rate leaving it.
	g.pos = resize(g.pos, n)
	g.members = g.members[:0]
	for v, cv := range comp {
		if cv == closed {
			g.pos[v] = int32(len(g.members))
			g.members = append(g.members, int32(v))
		}
	}
	return nil
}

// fill stores the class's rates in band form.
func (g *GTH) fill() {
	p, q := 0, 0
	for a, u := range g.members {
		for _, v := range g.succ(u) {
			b := int(g.pos[v])
			p = max(p, a-b)
			q = max(q, b-a)
		}
	}
	m := len(g.members)
	g.p, g.w = p, p+q+1
	g.band = resize(g.band, m*g.w)
	clear(g.band)
	for a, u := range g.members {
		row := g.band[a*g.w : (a+1)*g.w]
		for e := g.lo[u]; e < g.hi[u]; e++ {
			row[int(g.pos[g.to[e]])-a+p] += g.rate[e]
		}
	}
}

// reduce runs the GTH elimination. Position k, from the last down to 1, is
// censored out of the chain on positions 0..k: its rates into the lower
// positions sum to s_k, and each lower position i that enters k at rate
// a(i,k) is rerouted along k's exits, a(i,j) += a(i,k)·a(k,j)/s_k. The
// scaled a(i,k)/s_k is kept in place for the back substitution.
// Diagonal fill-in is harmless: no later step reads it.
func (g *GTH) reduce() error {
	m, p, w := len(g.members), g.p, g.w
	q := w - 1 - p
	band := g.band
	for k := m - 1; k > 0; k-- {
		rowK := band[k*w : (k+1)*w]
		jlo := max(0, k-p)
		exits := rowK[jlo-k+p : p]
		s := 0.0
		for _, e := range exits {
			s += e
		}
		if !(s > 0) {
			// An irreducible class always keeps an exit downwards.
			return fmt.Errorf("markov: state %d has no rate to the states left after reduction", g.members[k])
		}
		for i := max(0, k-q); i < k; i++ {
			rowI := band[i*w : (i+1)*w]
			a := rowI[k-i+p]
			if a == 0 {
				continue
			}
			a /= s
			rowI[k-i+p] = a
			dst := rowI[jlo-i+p : k-i+p]
			for j, e := range exits {
				dst[j] += a * e
			}
		}
	}
	return nil
}

// expand back-substitutes the reduced chain, π_k = Σ_{i<k} π_i·a(i,k)/s_k
// from π_0 = 1, normalises, and scatters the class into pi.
func (g *GTH) expand(pi []float64) {
	m, p, w := len(g.members), g.p, g.w
	q := w - 1 - p
	g.x = resize(g.x, m)
	x := g.x
	x[0] = 1
	total := 1.0
	for k := 1; k < m; k++ {
		s := 0.0
		for i := max(0, k-q); i < k; i++ {
			s += x[i] * g.band[i*w+k-i+p]
		}
		x[k] = s
		total += s
	}
	clear(pi)
	for k, v := range g.members {
		pi[v] = x[k] / total
	}
}

// check computes the global-balance residual ‖πQ‖₁ from the recorded
// rates, independently of the band, and rejects pi if the residual exceeds
// gthResidualTol of the total probability flow. A one-state class has no
// flow and nothing to balance.
func (g *GTH) check(pi []float64) error {
	flow := g.x // expand is done with it
	clear(flow)
	total := 0.0
	for a, u := range g.members {
		for e := g.lo[u]; e < g.hi[u]; e++ {
			f := pi[u] * g.rate[e]
			flow[a] -= f
			flow[g.pos[g.to[e]]] += f
			total += f
		}
	}
	res := 0.0
	for _, f := range flow {
		res += math.Abs(f)
	}
	if !(res <= gthResidualTol*total) {
		return fmt.Errorf("markov: stationary solve failed global balance: residual %.3g of total flow %.3g", res, total)
	}
	return nil
}
