package core

// This file implements the network-usage-aware extension (paper §6: "A
// policy is needed to weigh the opposing goals of maximising access
// improvement and minimising network usage"). The combined objective is
//
//	g_λ(F) = g°(F) − λ·Waste(F),   Waste(F) = Σ_{i∈F} (1−P_i)·r_i
//
// so each item's effective profit becomes r_i·((1+λ)·P_i − λ): candidates
// with P_i ≤ λ/(1+λ) are never worth fetching, and as λ grows the plan
// shrinks toward only near-certain items.

// SolveSKPCostAware maximises g°(F) − λ·Waste(F) exactly over the canonical
// search space. λ = 0 reduces to SolveSKP.
func SolveSKPCostAware(p Problem, lambda float64) (Plan, SolverStats, error) {
	return SolveSKPOpts(p, Options{NetworkLambda: lambda})
}

// ProbThreshold returns λ/(1+λ), the probability below which an item can
// never carry positive cost-aware profit.
func ProbThreshold(lambda float64) float64 {
	return lambda / (1 + lambda)
}

// WithNetworkLambda returns a copy of o pricing network usage at lambda.
// It exists for planners that re-solve the SKP every round under a λ that
// moves round-to-round (the adaptive controllers of the multiclient
// simulation): the rest of the solver configuration stays fixed while the
// speculation price tracks observed congestion. λ = 0 restores the plain
// objective, so a controller resting at its floor reproduces SolveSKP
// (or the non-zero static plan) exactly.
func (o Options) WithNetworkLambda(lambda float64) Options {
	o.NetworkLambda = lambda
	return o
}
