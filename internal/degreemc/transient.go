package degreemc

import (
	"fmt"
	"math"

	"sendforget/internal/markov"
)

// TransientPoint is one sample of the transient degree evolution.
type TransientPoint struct {
	Round   float64
	MeanOut float64
	MeanIn  float64
}

// buildChainScaled uniformizes like BuildChain and additionally returns the
// real-time scale: how many protocol rounds one chain step spans.
//
// A raw transition rate r (as emitted by transitions, with the common
// 1/(s(s-1)) dropped) means the event fires with probability r/(n s(s-1))
// per global action, i.e. r/(s(s-1)) per round of n actions. Uniformization
// divides all rates by w, so one chain step advances s(s-1)/w rounds —
// independent of the state, which is what makes the time change exact.
func (sp *Space) buildChainScaled(f Field) (*markov.Sparse, float64, error) {
	n := sp.Len()
	type edge struct {
		to   int
		rate float64
	}
	rates := make([][]edge, n)
	maxRow := 0.0
	for k, st := range sp.states {
		total := 0.0
		sp.transitions(st, f, func(to State, rate float64, _ Kind) {
			idx, ok := sp.Index(to)
			if !ok {
				return
			}
			rates[k] = append(rates[k], edge{idx, rate})
			total += rate
		})
		if total > maxRow {
			maxRow = total
		}
	}
	if maxRow == 0 {
		return nil, 0, fmt.Errorf("degreemc: chain has no transitions")
	}
	w := maxRow * uniformizationHeadroom
	chain := markov.NewSparse(n)
	for k, row := range rates {
		for _, e := range row {
			chain.Add(k, e.to, e.rate/w)
		}
	}
	if err := chain.CloseRows(); err != nil {
		return nil, 0, err
	}
	roundsPerStep := float64(sp.par.S*(sp.par.S-1)) / w
	return chain, roundsPerStep, nil
}

// Transient evolves a point mass at from under the chain with field f and
// returns samples+1 trajectory points spanning [0, maxRounds] — the exact
// expected degree evolution of, e.g., a joiner starting at (dL, 0)
// (Section 6.5). The field should come from a converged Solve so the
// environment is the steady state the joiner integrates into.
func (sp *Space) Transient(f Field, from State, maxRounds float64, samples int) ([]TransientPoint, error) {
	if maxRounds <= 0 || samples < 1 {
		return nil, fmt.Errorf("degreemc: invalid transient request maxRounds=%v samples=%d", maxRounds, samples)
	}
	k0, ok := sp.Index(from)
	if !ok {
		return nil, fmt.Errorf("degreemc: transient start %+v outside state space", from)
	}
	chain, roundsPerStep, err := sp.buildChainScaled(f)
	if err != nil {
		return nil, err
	}
	dist := make([]float64, sp.Len())
	dist[k0] = 1
	out := make([]TransientPoint, 0, samples+1)
	record := func(round float64) {
		mo, mi := 0.0, 0.0
		for k, p := range dist {
			mo += p * float64(sp.states[k].Out)
			mi += p * float64(sp.states[k].In)
		}
		out = append(out, TransientPoint{Round: round, MeanOut: mo, MeanIn: mi})
	}
	record(0)
	stepsDone := 0
	for i := 1; i <= samples; i++ {
		targetRound := maxRounds * float64(i) / float64(samples)
		targetSteps := int(math.Round(targetRound / roundsPerStep))
		for stepsDone < targetSteps {
			dist = markov.Step(chain, dist)
			stepsDone++
		}
		record(targetRound)
	}
	return out, nil
}
