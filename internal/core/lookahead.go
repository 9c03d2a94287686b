package core

import (
	"fmt"
	"math"
)

// This file implements the depth-2 lookahead extension (paper §6, "looking
// ahead deeper will improve the performance"). The one-step SKP objective
// ignores that the stretch time intrudes into the *next* viewing window
// (§4.4): every unit of stretch removes one unit of prefetch capacity from
// the following decision. The marginal value of that capacity is, by
// Theorem 2, the probability of the item at the Dantzig margin of the
// successor problem. Pricing the stretch at the expected marginal density
// of the successors turns the one-step solver into a two-step-aware one
// while preserving exactness and the Theorem-2 bound (the coefficient only
// grows, and the fractional no-stretch argument still applies).

// WeightedProblem is a successor decision problem together with the
// probability of reaching it (e.g. the Markov transition probability into
// the state whose viewing time it uses).
type WeightedProblem struct {
	Weight  float64
	Problem Problem
}

// validateSuccessors checks every successor, zero-weight ones included: a
// finite, non-negative weight and a valid problem.
func validateSuccessors(successors []WeightedProblem) error {
	for i, wp := range successors {
		if math.IsNaN(wp.Weight) || math.IsInf(wp.Weight, 0) || wp.Weight < 0 {
			return fmt.Errorf("%w: successor %d weight %v", ErrBadProblem, i, wp.Weight)
		}
		if err := wp.Problem.Validate(); err != nil {
			return fmt.Errorf("successor %d: %w", i, err)
		}
	}
	return nil
}

// MarginalDensity returns the probability of the item at the margin of the
// problem's Dantzig fill: the first canonical item that no longer fits
// wholly in the viewing time. By Theorem 2 this is ∂(upper bound)/∂v — the
// value of one extra unit of prefetch capacity. It is 0 when every item
// fits (extra capacity buys nothing).
func MarginalDensity(p Problem) float64 {
	sorted := CanonicalOrder(p.Items)
	if _, k, _ := dantzigFill(sorted, p.Viewing); k < len(sorted) {
		return sorted[k].Prob
	}
	return 0
}

// ExpectedStretchCost returns the probability-weighted marginal density of
// the successor problems: the expected next-step gain lost per unit of
// stretch carried into the next viewing window.
func ExpectedStretchCost(successors []WeightedProblem) float64 {
	var cost float64
	for _, wp := range successors {
		if wp.Weight <= 0 {
			continue
		}
		cost += wp.Weight * MarginalDensity(wp.Problem)
	}
	return cost
}

// SolveSKPStretchAware solves the SKP with the stretch additionally priced
// at stretchCost per unit (see ExpectedStretchCost). With stretchCost = 0 it
// is identical to SolveSKP; at stretchCost = +Inf it is SolveKP, which
// never stretches.
func SolveSKPStretchAware(p Problem, stretchCost float64) (Plan, SolverStats, error) {
	return SolveSKPOpts(p, Options{StretchCost: stretchCost})
}

// SolveSKPLookahead computes the stretch price from the successor problems
// and solves the stretch-aware SKP in one call. It is the depth-2 policy
// used by the lookahead experiment.
func SolveSKPLookahead(p Problem, successors []WeightedProblem) (Plan, SolverStats, error) {
	if err := validateSuccessors(successors); err != nil {
		return Plan{}, SolverStats{}, err
	}
	return SolveSKPStretchAware(p, ExpectedStretchCost(successors))
}
