package core

import "fmt"

// This file implements the exact depth-2 objective, upgrading the linear
// surrogate of SolveSKPLookahead. The two-step value of a plan F for the
// current decision is
//
//	V(F) = g°(F) + Σ_ξ P_ξ · G*(succ(ξ), v_ξ − st(F))
//
// where G*(q, v) is the optimal one-step gain of the successor problem q
// with its viewing time reduced by the stretch F carries into it (§4.4).
// Because the continuation value depends on F only through st(F), the
// search is the Solver's own branch-and-bound with one extra term:
// h(st) = Σ P_ξ·G*(ξ, v_ξ−st), a non-increasing function evaluated lazily
// and memoised per distinct stretch value (retrieval times are typically
// integral, so few values occur).

// Depth2Stats extends SolverStats with continuation-solve accounting.
type Depth2Stats struct {
	SolverStats
	ContinuationSolves int64 // one-step successor solves (after memoisation)
}

// continuation is the memoised h(st) of a set of validated successors.
type continuation struct {
	successors []WeightedProblem
	inner      *Solver
	memo       map[float64]float64
	solves     int64
}

// at returns h(st), solving the successors on the first call per st.
func (c *continuation) at(st float64) float64 {
	if v, ok := c.memo[st]; ok {
		return v
	}
	v, solves := continuationGain(c.inner, c.successors, st)
	c.solves += solves
	c.memo[st] = v
	return v
}

// continuationGain returns Σ_ξ P_ξ·G*(ξ, max(v_ξ − st, 0)) over the
// positive-weight successors, each solved by s, and the number of solves.
// The successors must have passed validateSuccessors.
func continuationGain(s *Solver, successors []WeightedProblem, st float64) (total float64, solves int64) {
	for _, wp := range successors {
		if wp.Weight == 0 {
			continue
		}
		q := wp.Problem
		q.Viewing -= st
		if q.Viewing < 0 {
			q.Viewing = 0
		}
		plan, _, err := s.Solve(q, Options{})
		if err != nil {
			// Successors were validated; reducing v cannot invalidate.
			panic(fmt.Sprintf("core: continuation solve failed: %v", err))
		}
		total += wp.Weight * gainUnchecked(q, plan)
		solves++
	}
	return total, solves
}

// SolveSKPDepth2 maximises the exact two-step objective over the canonical
// search space: it runs the Solver with h as its continuation. Successor
// weights are the transition probabilities P_ξ; each successor problem
// should carry that state's own candidates and viewing time. Inner
// problems are solved by one reused one-step Solver.
func SolveSKPDepth2(p Problem, successors []WeightedProblem) (Plan, Depth2Stats, error) {
	if err := validateSuccessors(successors); err != nil {
		return Plan{}, Depth2Stats{}, err
	}
	h := &continuation{successors: successors, inner: NewSolver(), memo: map[float64]float64{}}
	plan, stats, err := NewSolver().solve(p, Options{}, h)
	return plan, Depth2Stats{SolverStats: stats, ContinuationSolves: h.solves}, err
}

// Depth2Value evaluates the exact two-step objective of a given plan:
// g°(F) plus the probability-weighted optimal continuation under the
// stretch F carries forward.
func Depth2Value(p Problem, plan Plan, successors []WeightedProblem) (float64, error) {
	g, err := Gain(p, plan)
	if err != nil {
		return 0, err
	}
	if err := validateSuccessors(successors); err != nil {
		return 0, err
	}
	cont, _ := continuationGain(NewSolver(), successors, plan.Stretch(p.Viewing))
	return g + cont, nil
}
