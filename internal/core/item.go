// Package core implements the paper's contribution: the performance model
// of speculative prefetching (access improvement, Eqs. 2/3/9 of Tuah,
// Kumar & Venkatesh, IPPS/SPDP 1999), the Stretch Knapsack Problem and its
// exact branch-and-bound solver (Fig. 3, Theorems 1–3), the classic-knapsack
// baseline reduction, and the prefetch/cache integration with Pr- and
// sub-arbitration (Fig. 6).
//
// # Model recap
//
// An application idles for a viewing time v during which items can be
// prefetched. Item i will be the next request with probability P_i and takes
// r_i time units to retrieve. A prefetch list F = K·⟨z⟩ retrieves K fully
// within v while the final item z may overrun by the stretch time
// st(F) = max(0, Σ_{i∈F} r_i − v). The realized access time is 0 for items
// in K, st(F) for z, and st(F)+r_ξ for anything else, because an in-flight
// prefetch is never aborted. The access improvement of a plan is
//
//	g°(F) = Σ_{i∈F} P_i·r_i − (TotalProb − Σ_{i∈K} P_i)·st(F)
//
// and choosing F to maximise g° is the Stretch Knapsack Problem.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrBadProblem reports a malformed problem instance.
var ErrBadProblem = errors.New("core: bad problem")

// ErrBadPlan reports a plan inconsistent with its problem.
var ErrBadPlan = errors.New("core: bad plan")

// ProbTolerance is the slack allowed when validating that probabilities sum
// to at most TotalProb.
const ProbTolerance = 1e-6

// Item is a prefetch candidate: an identifier, the probability that it is
// the next item requested, and its retrieval time.
type Item struct {
	ID        int     // unique external identifier
	Prob      float64 // P_i, probability this item is requested next
	Retrieval float64 // r_i, time to fully retrieve the item
}

// Problem is an instance of the prefetching decision: a candidate list, the
// viewing time available for prefetching, and the total probability mass of
// the request universe.
//
// TotalProb exists because the candidate list is not always the whole
// universe: when prefetch candidates exclude already-cached items (paper
// §5), Σ P_i over Items is less than 1 while the stretch penalty of Eq. 3
// still weighs the full universe. Leave TotalProb zero to default it to
// Σ P_i (the prefetch-only setting, where the items are the universe).
type Problem struct {
	Items     []Item
	Viewing   float64 // v, time available before the next request
	TotalProb float64 // probability mass of the whole universe; 0 ⇒ Σ P_i
}

// SumProb returns Σ P_i over the candidate items.
func (p Problem) SumProb() float64 {
	var s float64
	for _, it := range p.Items {
		s += it.Prob
	}
	return s
}

// EffectiveTotalProb returns TotalProb, defaulting to Σ P_i when unset.
func (p Problem) EffectiveTotalProb() float64 {
	if p.TotalProb > 0 {
		return p.TotalProb
	}
	return p.SumProb()
}

// Validate checks the instance: finite non-negative probabilities, strictly
// positive finite retrieval times, non-negative viewing time, unique IDs,
// and Σ P_i ≤ TotalProb (within ProbTolerance) when TotalProb is set.
// Up to smallItems candidates (the simulators' lists) it allocates
// nothing: duplicate IDs are found by scanning the earlier items. Longer
// lists use a seen-set so no caller goes quadratic.
func (p Problem) Validate() error {
	if math.IsNaN(p.Viewing) || math.IsInf(p.Viewing, 0) || p.Viewing < 0 {
		return fmt.Errorf("%w: viewing time %v", ErrBadProblem, p.Viewing)
	}
	if math.IsNaN(p.TotalProb) || math.IsInf(p.TotalProb, 0) || p.TotalProb < 0 {
		return fmt.Errorf("%w: total probability %v", ErrBadProblem, p.TotalProb)
	}
	var seen map[int]bool
	if len(p.Items) > smallItems {
		seen = make(map[int]bool, len(p.Items))
	}
	var sum float64
	for i, it := range p.Items {
		if math.IsNaN(it.Prob) || math.IsInf(it.Prob, 0) || it.Prob < 0 || it.Prob > 1+ProbTolerance {
			return fmt.Errorf("%w: item %d (id %d) probability %v", ErrBadProblem, i, it.ID, it.Prob)
		}
		if math.IsNaN(it.Retrieval) || math.IsInf(it.Retrieval, 0) || it.Retrieval <= 0 {
			return fmt.Errorf("%w: item %d (id %d) retrieval time %v (must be > 0)", ErrBadProblem, i, it.ID, it.Retrieval)
		}
		var dup bool
		if seen != nil {
			dup = seen[it.ID]
			seen[it.ID] = true
		} else {
			dup = slices.ContainsFunc(p.Items[:i], func(prev Item) bool { return prev.ID == it.ID })
		}
		if dup {
			return fmt.Errorf("%w: duplicate item id %d", ErrBadProblem, it.ID)
		}
		sum += it.Prob
	}
	if p.TotalProb > 0 && sum > p.TotalProb+ProbTolerance {
		return fmt.Errorf("%w: Σ P_i = %v exceeds TotalProb = %v", ErrBadProblem, sum, p.TotalProb)
	}
	return nil
}

// smallItems bounds the candidate lists that Validate and the Solver's
// canonical sort handle with allocation-free quadratic passes.
const smallItems = 64

// CanonicalOrder returns a copy of items sorted by the paper's condition
// (5): descending probability, equal probabilities sub-sorted by ascending
// retrieval time, with a final deterministic tie-break on ID. Theorem 1
// motivates restricting the SKP search to this order.
func CanonicalOrder(items []Item) []Item {
	out := make([]Item, len(items))
	copy(out, items)
	sort.SliceStable(out, func(a, b int) bool { return canonicalLess(out[a], out[b]) })
	return out
}

// canonicalLess is the condition-(5) order of CanonicalOrder.
func canonicalLess(a, b Item) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	if a.Retrieval != b.Retrieval {
		return a.Retrieval < b.Retrieval
	}
	return a.ID < b.ID
}

// ItemByID returns the item with the given ID and whether it exists.
func (p Problem) ItemByID(id int) (Item, bool) {
	for _, it := range p.Items {
		if it.ID == id {
			return it, true
		}
	}
	return Item{}, false
}

// Plan is an ordered prefetch list F = K·⟨z⟩: every element except the last
// must complete within the viewing time; the last element may overrun. The
// zero value is the empty plan (prefetch nothing).
type Plan struct {
	Items []Item // prefetch order; the last element is z
}

// Empty reports whether the plan prefetches nothing.
func (pl Plan) Empty() bool { return len(pl.Items) == 0 }

// Len returns the number of items in the plan.
func (pl Plan) Len() int { return len(pl.Items) }

// IDs returns the item IDs in prefetch order.
func (pl Plan) IDs() []int {
	ids := make([]int, len(pl.Items))
	for i, it := range pl.Items {
		ids[i] = it.ID
	}
	return ids
}

// Contains reports whether the plan includes the item with the given ID.
func (pl Plan) Contains(id int) bool {
	for _, it := range pl.Items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// TotalRetrieval returns Σ r_i over the plan.
func (pl Plan) TotalRetrieval() float64 {
	var s float64
	for _, it := range pl.Items {
		s += it.Retrieval
	}
	return s
}

// SumProb returns Σ P_i over the plan.
func (pl Plan) SumProb() float64 {
	var s float64
	for _, it := range pl.Items {
		s += it.Prob
	}
	return s
}

// Stretch returns st(F) = max(0, Σ r_i − v) against viewing time v (Eq. 2).
func (pl Plan) Stretch(v float64) float64 {
	return Stretch(pl.TotalRetrieval(), v)
}

// Last returns the final item z and whether the plan is non-empty.
func (pl Plan) Last() (Item, bool) {
	if len(pl.Items) == 0 {
		return Item{}, false
	}
	return pl.Items[len(pl.Items)-1], true
}

// String renders the plan compactly for logs.
func (pl Plan) String() string {
	if pl.Empty() {
		return "Plan{}"
	}
	s := "Plan{"
	for i, it := range pl.Items {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d(P=%.3g,r=%.3g)", it.ID, it.Prob, it.Retrieval)
	}
	return s + "}"
}

// validAgainst checks that the plan's items are a subset of the problem's
// items (matched by ID, with identical parameters), appear at most once, and
// satisfy the construction (1) feasibility: all but the last item must
// complete strictly within the viewing time.
func (pl Plan) validAgainst(p Problem) error {
	index := make(map[int]Item, len(p.Items))
	for _, it := range p.Items {
		index[it.ID] = it
	}
	seen := make(map[int]bool, len(pl.Items))
	var sumK float64
	for i, it := range pl.Items {
		ref, ok := index[it.ID]
		if !ok {
			return fmt.Errorf("%w: plan item id %d not in problem", ErrBadPlan, it.ID)
		}
		if ref.Prob != it.Prob || ref.Retrieval != it.Retrieval {
			return fmt.Errorf("%w: plan item id %d parameters differ from problem", ErrBadPlan, it.ID)
		}
		if seen[it.ID] {
			return fmt.Errorf("%w: plan repeats item id %d", ErrBadPlan, it.ID)
		}
		seen[it.ID] = true
		if i < len(pl.Items)-1 {
			sumK += it.Retrieval
		}
	}
	if len(pl.Items) > 1 && sumK >= p.Viewing {
		return fmt.Errorf("%w: prefix retrieval %v does not complete within viewing time %v (construction 1)", ErrBadPlan, sumK, p.Viewing)
	}
	return nil
}
