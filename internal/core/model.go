package core

import "fmt"

// Stretch returns max(0, totalRetrieval − viewing), the stretch time of a
// prefetch whose sequential retrievals sum to totalRetrieval (Eq. 2).
func Stretch(totalRetrieval, viewing float64) float64 {
	if s := totalRetrieval - viewing; s > 0 {
		return s
	}
	return 0
}

// ExpectedNoPrefetch returns E[T | no prefetch] = Σ P_i·r_i over the
// problem's items. With an empty cache the access time of a demand fetch is
// exactly the retrieval time of the requested item.
func ExpectedNoPrefetch(p Problem) float64 {
	var e float64
	for _, it := range p.Items {
		e += it.Prob * it.Retrieval
	}
	return e
}

// ExpectedWithPlan returns E[T | prefetch F] for an empty cache:
//
//	P_z·st(F) + Σ_{i∉F} P_i·(r_i + st(F))
//
// The problem's items must cover the whole request universe (TotalProb ≈
// Σ P_i); otherwise the expectation over unlisted items is undefined and an
// error is returned.
func ExpectedWithPlan(p Problem, plan Plan) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := plan.validAgainst(p); err != nil {
		return 0, err
	}
	if p.TotalProb > 0 && p.SumProb() < p.TotalProb-ProbTolerance {
		return 0, fmt.Errorf("%w: items cover %v of TotalProb %v; expectation undefined over unlisted mass",
			ErrBadProblem, p.SumProb(), p.TotalProb)
	}
	st := plan.Stretch(p.Viewing)
	var e float64
	if z, ok := plan.Last(); ok {
		e += z.Prob * st
	}
	for _, it := range p.Items {
		if plan.Contains(it.ID) {
			continue
		}
		e += it.Prob * (it.Retrieval + st)
	}
	return e, nil
}

// Gain returns the access improvement g°(F) of Eq. 3:
//
//	g°(F) = Σ_{i∈F} P_i·r_i − (TotalProb − Σ_{i∈K} P_i)·st(F)
//
// where K is the plan minus its last item. Unlike ExpectedWithPlan, Gain is
// well-defined when the items are only part of the universe (TotalProb >
// Σ P_i), which is the situation in the cache-integrated setting.
func Gain(p Problem, plan Plan) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := plan.validAgainst(p); err != nil {
		return 0, err
	}
	return gainUnchecked(p, plan), nil
}

// gainUnchecked computes Eq. 3 assuming the plan is valid for the problem.
func gainUnchecked(p Problem, plan Plan) float64 {
	if plan.Empty() {
		return 0
	}
	st := plan.Stretch(p.Viewing)
	var g float64
	for _, it := range plan.Items {
		g += it.Prob * it.Retrieval
	}
	if st > 0 {
		sumK := plan.SumProb()
		if z, ok := plan.Last(); ok {
			sumK -= z.Prob
		}
		g -= (p.EffectiveTotalProb() - sumK) * st
	}
	return g
}

// GainTail returns the plan's value under the objective that the literal
// Figure-3 pseudocode optimises, where the stretch penalty coefficient is
// the probability mass at or after z in canonical order rather than
// TotalProb − Σ_{i∈K} P_i. The two coincide unless an item ordered before z
// was excluded from the plan. Exposed so experiments can quantify the
// difference between the pseudocode and Theorem 3.
func GainTail(p Problem, plan Plan) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := plan.validAgainst(p); err != nil {
		return 0, err
	}
	if plan.Empty() {
		return 0, nil
	}
	st := plan.Stretch(p.Viewing)
	var g float64
	for _, it := range plan.Items {
		g += it.Prob * it.Retrieval
	}
	if st > 0 {
		z, _ := plan.Last()
		sorted := CanonicalOrder(p.Items)
		var tail float64
		reached := false
		for _, it := range sorted {
			if it.ID == z.ID {
				reached = true
			}
			if reached {
				tail += it.Prob
			}
		}
		g -= tail * st
	}
	return g, nil
}

// Improvement returns E[T|no prefetch] − E[T|prefetch F] computed from the
// two expectations directly. For a full-universe problem it equals Gain
// (Eq. 3); the property tests assert that identity.
func Improvement(p Problem, plan Plan) (float64, error) {
	with, err := ExpectedWithPlan(p, plan)
	if err != nil {
		return 0, err
	}
	return ExpectedNoPrefetch(p) - with, nil
}

// AccessTime returns the realized access time when the plan was prefetched
// and the item with ID requested turned out to be requested (Fig. 2):
//
//   - requested ∈ K (all but last):           T = 0
//   - requested = z (last):                   T = st(F)
//   - requested ∉ F:                          T = st(F) + r_requested
//
// retrievalOf supplies r for items outside the plan.
func AccessTime(plan Plan, viewing float64, requested int, retrievalOf func(id int) float64) float64 {
	st := plan.Stretch(viewing)
	for i, it := range plan.Items {
		if it.ID != requested {
			continue
		}
		if i == len(plan.Items)-1 {
			return st
		}
		return 0
	}
	return st + retrievalOf(requested)
}

// UpperBound returns the Eq. 7 bound U = g̃°(x̃): the value of the linear
// relaxation, which upper-bounds g°(F) for every feasible plan (Theorem 2).
func UpperBound(p Problem) (float64, error) {
	_, _, u, err := LinearRelaxation(p)
	return u, err
}

// LinearRelaxation returns the optimal fractional prefetch proportions of
// the linear SKP (Theorem 2) in canonical order, alongside the sorted items
// and the objective value. x[i] = 1 for items before the critical index,
// the fractional fill at it, and 0 after.
func LinearRelaxation(p Problem) (sorted []Item, x []float64, value float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, 0, err
	}
	sorted = CanonicalOrder(p.Items)
	value, k, frac := dantzigFill(sorted, p.Viewing)
	x = make([]float64, len(sorted))
	for i := 0; i < k; i++ {
		x[i] = 1
	}
	if k < len(x) {
		x[k] = frac
	}
	return sorted, x, value, nil
}

// dantzigFill is the fractional fill of sorted against capacity v: the
// first k items whole, then the proportion frac of item k, the first that
// does not fit. It returns the filled value.
func dantzigFill(sorted []Item, v float64) (value float64, k int, frac float64) {
	residual := v
	for ; k < len(sorted); k++ {
		it := sorted[k]
		if it.Retrieval > residual {
			if residual > 0 {
				frac = residual / it.Retrieval
				value += residual * it.Prob
			}
			break
		}
		value += it.Prob * it.Retrieval
		residual -= it.Retrieval
	}
	return value, k, frac
}
