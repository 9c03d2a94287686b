// Package sim contains the Monte-Carlo harnesses that reproduce the
// paper's evaluation: the "prefetch only" simulation behind Figures 4 and 5
// (§4.4), the prefetch-cache replay behind Figure 7 (§5.3), which with
// item sizes on the trace also runs the byte-capacity cache of the
// non-uniform size extension (E9), and a netsim-backed Markov session that
// exposes the stretch-intrusion effect the one-step model ignores (used by
// the lookahead ablation). All three ask one Policy what to prefetch each
// round; only the session has a next-step model to pass it, so only there
// do the lookahead policies see successor problems.
package sim

import (
	"errors"
	"fmt"

	"prefetch/internal/core"
)

// ErrBadSim reports invalid simulation configuration.
var ErrBadSim = errors.New("sim: bad simulation config")

// Policy decides what to prefetch for a round's decision problem. It is
// the one planning interface of the prefetch-only, prefetch-cache and
// session harnesses.
type Policy interface {
	// Name labels the policy in results and figure legends.
	Name() string
	// Plan returns the prefetch plan for the problem. successors holds
	// the weighted decision problems of the next round, for policies that
	// look one step further ahead; harnesses without a next-step model
	// pass nil, and one-step policies ignore it.
	Plan(p core.Problem, successors []core.WeightedProblem) (core.Plan, error)
}

// NoPrefetch never prefetches (the paper's "no prefetch" series).
type NoPrefetch struct{}

// Name implements Policy.
func (NoPrefetch) Name() string { return "none" }

// Plan implements Policy.
func (NoPrefetch) Plan(core.Problem, []core.WeightedProblem) (core.Plan, error) {
	return core.Plan{}, nil
}

// SKPPolicy prefetches the stretch-knapsack solution. Mode selects the
// Theorem-3-correct δ (default) or the literal Figure-3 tail δ.
type SKPPolicy struct {
	Mode core.DeltaMode
}

// Name implements Policy.
func (p SKPPolicy) Name() string {
	if p.Mode == core.DeltaPaperTail {
		return "skp-paper"
	}
	return "skp"
}

// Plan implements Policy.
func (p SKPPolicy) Plan(prob core.Problem, _ []core.WeightedProblem) (core.Plan, error) {
	plan, _, err := core.SolveSKPOpts(prob, core.Options{Mode: p.Mode})
	return plan, err
}

// KPPolicy prefetches the classic knapsack solution (never stretches).
type KPPolicy struct{}

// Name implements Policy.
func (KPPolicy) Name() string { return "kp" }

// Plan implements Policy.
func (KPPolicy) Plan(p core.Problem, _ []core.WeightedProblem) (core.Plan, error) {
	return core.SolveKP(p)
}

// GreedyPolicy prefetches the density-greedy fill (ablation baseline).
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }

// Plan implements Policy.
func (GreedyPolicy) Plan(p core.Problem, _ []core.WeightedProblem) (core.Plan, error) {
	return core.SolveGreedyPrefetch(p)
}

// LookaheadPolicy prices the stretch at the successors' expected marginal
// density (depth-2 surrogate; paper §6 / §4.4). Without successors the
// price is zero and it plans as SKPPolicy.
type LookaheadPolicy struct{}

// Name implements Policy.
func (LookaheadPolicy) Name() string { return "skp-lookahead" }

// Plan implements Policy.
func (LookaheadPolicy) Plan(p core.Problem, successors []core.WeightedProblem) (core.Plan, error) {
	plan, _, err := core.SolveSKPLookahead(p, successors)
	return plan, err
}

// Depth2Policy maximises the exact two-step objective (optimal
// continuation gain per stretch value, memoised inner solves).
type Depth2Policy struct{}

// Name implements Policy.
func (Depth2Policy) Name() string { return "skp-depth2" }

// Plan implements Policy.
func (Depth2Policy) Plan(p core.Problem, successors []core.WeightedProblem) (core.Plan, error) {
	plan, _, err := core.SolveSKPDepth2(p, successors)
	return plan, err
}

// CostAwarePolicy trades access improvement against network usage at rate
// Lambda (paper §6 future work; see core.SolveSKPCostAware).
type CostAwarePolicy struct {
	Lambda float64
}

// Name implements Policy.
func (p CostAwarePolicy) Name() string { return fmt.Sprintf("skp-λ%.2g", p.Lambda) }

// Plan implements Policy.
func (p CostAwarePolicy) Plan(prob core.Problem, _ []core.WeightedProblem) (core.Plan, error) {
	plan, _, err := core.SolveSKPCostAware(prob, p.Lambda)
	return plan, err
}

// PerfectPolicy is the oracle: it always prefetches exactly the item that
// will be requested (the paper's "perfect prefetch" series). The harness
// special-cases it because the oracle must see the request.
type PerfectPolicy struct{}

// Name implements Policy.
func (PerfectPolicy) Name() string { return "perfect" }

// Plan implements Policy; without the request it cannot do better than
// nothing, so the harness must use PlanOracle.
func (PerfectPolicy) Plan(core.Problem, []core.WeightedProblem) (core.Plan, error) {
	return core.Plan{}, nil
}

// PlanOracle returns the plan containing only the requested item.
func (PerfectPolicy) PlanOracle(p core.Problem, requested int) core.Plan {
	if it, ok := p.ItemByID(requested); ok {
		return core.Plan{Items: []core.Item{it}}
	}
	return core.Plan{}
}
