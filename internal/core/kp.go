package core

import "math"

// SolveKP returns the "KP prefetch" baseline plan (paper §4): a classic 0/1
// knapsack over the candidates with profit P_i·r_i, weight r_i, and capacity
// v. It is the SKP search with the stretch priced out: at an infinite
// stretch price every stretching branch loses, so the branch-and-bound
// keeps only plans that complete within the viewing time and the plan's
// stretch is zero by construction.
func SolveKP(p Problem) (Plan, error) {
	plan, _, err := SolveSKPStretchAware(p, math.Inf(1))
	return plan, err
}

// SolveGreedyPrefetch returns the density-greedy baseline: candidates in
// canonical order, taking whatever still fits in the viewing time. Used by
// ablation experiments as a cheaper stand-in for SolveKP.
func SolveGreedyPrefetch(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	sorted := CanonicalOrder(p.Items)
	var plan Plan
	residual := p.Viewing
	for _, it := range sorted {
		if it.Retrieval <= residual {
			plan.Items = append(plan.Items, it)
			residual -= it.Retrieval
		}
	}
	return plan, nil
}
