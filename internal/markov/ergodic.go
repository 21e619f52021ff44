package markov

import "fmt"

// IsIrreducible reports whether the chain's positive-transition graph is
// strongly connected (one SCC spanning all states) — condition (1) of the
// ergodic theorem quoted in Section 3.2 and the property Lemma 7.1 proves
// for the global S&F chain.
func IsIrreducible(c Chain) bool {
	n := c.N()
	if n == 0 {
		return false
	}
	ptr, adj := digraph(c)
	var t tarjan
	succ := func(v int32) []int32 { return adj[ptr[v]:ptr[v+1]] }
	_, k := t.run(n, succ, func(int) bool { return true })
	return k == 1
}

// digraph returns c's positive-transition graph in compressed adjacency
// form: the successors of u are adj[ptr[u]:ptr[u+1]].
func digraph(c Chain) (ptr, adj []int32) {
	n := c.N()
	ptr = make([]int32, n+1)
	for u := 0; u < n; u++ {
		c.ForEach(u, func(v int, _ float64) { adj = append(adj, int32(v)) })
		ptr[u+1] = int32(len(adj))
	}
	return ptr, adj
}

// tarjan is an iterative Tarjan SCC search, so large degree-MC state spaces
// cannot overflow the goroutine stack. Its slices are scratch, grown on
// demand and reused by later runs.
type tarjan struct {
	index, low, comp, stack []int32
	onStack                 []bool
	calls                   []tarjanFrame
}

type tarjanFrame struct {
	v    int32
	rest []int32 // successors still to explore
}

// run labels every vertex of an n-vertex graph reachable from a root with
// its strongly connected component: comp[v] numbers the components in the
// order the search completes them, and is -1 for a vertex no root reaches.
// It returns comp and the number of components.
func (t *tarjan) run(n int, succ func(v int32) []int32, root func(v int) bool) (comp []int32, ncomp int) {
	t.index = resize(t.index, n)
	t.low = resize(t.low, n)
	t.comp = resize(t.comp, n)
	t.onStack = resize(t.onStack, n)
	index, low, onStack := t.index, t.low, t.onStack
	comp = t.comp
	for v := range index {
		index[v] = -1
		comp[v] = -1
		onStack[v] = false
	}
	stack, calls := t.stack[:0], t.calls[:0]
	var order, k int32
	visit := func(v int32) {
		index[v], low[v] = order, order
		order++
		stack = append(stack, v)
		onStack[v] = true
		calls = append(calls, tarjanFrame{v: v, rest: succ(v)})
	}
	for r := 0; r < n; r++ {
		if index[r] >= 0 || !root(r) {
			continue
		}
		visit(int32(r))
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if len(f.rest) > 0 {
				w := f.rest[0]
				f.rest = f.rest[1:]
				if index[w] < 0 {
					visit(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Post-order: pop.
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if p := calls[len(calls)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = k
					if w == v {
						break
					}
				}
				k++
			}
		}
	}
	t.stack, t.calls = stack, calls
	return comp, int(k)
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Period returns the period of an irreducible chain: the gcd of the lengths
// of all directed cycles. A period of 1 means aperiodic — condition (2) of
// the ergodic theorem. It returns an error if the chain is not irreducible.
func Period(c Chain) (int, error) {
	if !IsIrreducible(c) {
		return 0, fmt.Errorf("markov: period undefined for reducible chain")
	}
	n := c.N()
	level := make([]int, n)
	seen := make([]bool, n)
	level[0] = 0
	seen[0] = true
	queue := []int{0}
	g := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		c.ForEach(u, func(v int, _ float64) {
			if !seen[v] {
				seen[v] = true
				level[v] = level[u] + 1
				queue = append(queue, v)
				return
			}
			d := level[u] + 1 - level[v]
			if d < 0 {
				d = -d
			}
			g = gcd(g, d)
		})
	}
	if g == 0 {
		// A strongly connected graph with >= 2 states always closes some
		// cycle; g == 0 can only happen for the single-state chain with a
		// self-loop, which has period 1.
		return 1, nil
	}
	return g, nil
}

// IsErgodic reports whether the chain is irreducible and aperiodic, i.e.
// has a unique stationary distribution reached from every start (the
// fundamental theorem quoted in Section 3.2).
func IsErgodic(c Chain) bool {
	if !IsIrreducible(c) {
		return false
	}
	p, err := Period(c)
	return err == nil && p == 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
