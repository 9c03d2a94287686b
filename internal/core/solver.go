package core

import (
	"fmt"
	"math"
	"sort"
)

// Solver is the SKP branch-and-bound of Figure 3: depth-first search over
// the canonical order, Theorem-2 pruning and Theorem-3 incremental δ.
// Its objective may carry a continuation h(st), the value of the next
// round after a stretch st (SolveSKPDepth2); Solve runs without one.
// SolveSKPOpts runs a fresh Solver per call; a simulation that solves one
// SKP per client round keeps one Solver instead, because every piece of
// per-solve scratch (canonical order, profit/tail prefix tables,
// selection masks, the returned item list) survives between calls and a
// steady-state Solve allocates nothing.
//
// The Plan returned by Solve aliases the solver's scratch: it is valid only
// until the next Solve call. Callers that retain plans must copy Items.
// A Solver is not safe for concurrent use; the simulators run one per
// event-loop goroutine.
type Solver struct {
	sorted  []Item
	profit  []float64
	tailP   []float64
	bestSel []bool
	cur     []bool
	out     []Item

	// per-solve state consulted by the recursive search
	n            int
	totalProb    float64
	mode         DeltaMode
	stretchCost  float64
	disableBound bool
	cont         *continuation // nil: the one-step objective
	h0           float64       // cont at zero stretch; 0 without one
	best         float64
	stats        SolverStats
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// solverEps is the slack of incumbent improvements and bound comparisons.
const solverEps = 1e-12

// Solve runs the branch-and-bound over the solver's scratch. The returned
// Plan's Items slice is owned by the solver and overwritten by the next
// Solve.
func (s *Solver) Solve(p Problem, opts Options) (Plan, SolverStats, error) {
	return s.solve(p, opts, nil)
}

// solve maximises the objective plus cont's value at the plan's stretch:
// a non-stretching plan adds h(0), a stretching one h(st). The Theorem-2
// prune stays sound with h(0) added to the bound because h is
// non-increasing in st.
func (s *Solver) solve(p Problem, opts Options, cont *continuation) (Plan, SolverStats, error) {
	s.stats = SolverStats{}
	if err := p.Validate(); err != nil {
		return Plan{}, s.stats, err
	}
	if opts.StretchCost < 0 || opts.NetworkLambda < 0 {
		return Plan{}, s.stats, fmt.Errorf("%w: negative StretchCost or NetworkLambda", ErrBadProblem)
	}
	if math.IsNaN(opts.StretchCost) || math.IsNaN(opts.NetworkLambda) || math.IsInf(opts.NetworkLambda, 1) {
		return Plan{}, s.stats, fmt.Errorf("%w: NaN StretchCost or NetworkLambda, or infinite NetworkLambda", ErrBadProblem)
	}
	n := len(p.Items)
	if n == 0 {
		return Plan{}, s.stats, nil
	}
	s.grow(n)
	s.n = n
	s.totalProb = p.EffectiveTotalProb()
	s.mode = opts.Mode
	s.stretchCost = opts.StretchCost
	s.disableBound = opts.DisableBound

	copy(s.sorted, p.Items)
	s.canonicalSort()

	// profit[i] is the gain of wholly prefetching item i: P_i·r_i, less
	// the network-usage price when λ > 0. Items whose profit is not
	// positive are still enumerated but never inserted.
	lambda := opts.NetworkLambda
	for i := 0; i < n; i++ {
		it := s.sorted[i]
		s.profit[i] = it.Retrieval * ((1+lambda)*it.Prob - lambda)
	}
	// tailP[j] = Σ_{i>=j} P_i in canonical order (DeltaPaperTail).
	s.tailP[n] = 0
	for i := n - 1; i >= 0; i-- {
		s.tailP[i] = s.tailP[i+1] + s.sorted[i].Prob
	}

	s.cont = cont
	s.h0 = s.h(0)
	s.best = s.h0 // the empty plan
	for i := 0; i < n; i++ {
		s.bestSel[i] = false
		s.cur[i] = false
	}
	s.dfs(0, p.Viewing, 0, 0)

	s.out = s.out[:0]
	for i := 0; i < n; i++ {
		if s.bestSel[i] {
			s.out = append(s.out, s.sorted[i])
		}
	}
	return Plan{Items: s.out}, s.stats, nil
}

// grow resizes the scratch to hold n items.
func (s *Solver) grow(n int) {
	if cap(s.sorted) < n {
		s.sorted = make([]Item, n)
		s.profit = make([]float64, n)
		s.tailP = make([]float64, n+1)
		s.bestSel = make([]bool, n)
		s.cur = make([]bool, n)
	}
	s.sorted = s.sorted[:n]
	s.profit = s.profit[:n]
	s.tailP = s.tailP[:n+1]
	s.bestSel = s.bestSel[:n]
	s.cur = s.cur[:n]
}

// canonicalSort orders s.sorted by the paper's condition (5) — probability
// descending, retrieval ascending, ID ascending. IDs are unique, so the key
// is a total order and an in-place insertion sort (allocation-free, unlike
// sort.SliceStable's reflection swapper) produces exactly CanonicalOrder's
// permutation. Candidate lists are MaxCandidates-bounded in the simulators;
// inputs beyond smallItems fall back to the stable library sort.
func (s *Solver) canonicalSort() {
	items := s.sorted
	if len(items) > smallItems {
		sort.SliceStable(items, func(a, b int) bool { return canonicalLess(items[a], items[b]) })
		return
	}
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && canonicalLess(it, items[j]) {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// coeff returns the stretch-penalty coefficient for inserting item j as the
// stretching final item, given Σ P over the currently selected K. Both
// modes dominate profit[j]/r_j, so stretching never pays fractionally and
// the Dantzig bound stays sound.
func (s *Solver) coeff(j int, sumPK float64) float64 {
	base := s.totalProb - sumPK
	if s.mode == DeltaPaperTail {
		base = s.tailP[j]
	}
	return base + s.stretchCost
}

// bound is the Dantzig fractional-fill upper bound on additional profit
// from items j..n-1 under the residual capacity.
func (s *Solver) bound(j int, residual float64) float64 {
	var u float64
	for i := j; i < s.n; i++ {
		if s.profit[i] <= 0 {
			continue // canonical order is not profit-sorted once λ > 0 clamps
		}
		if s.sorted[i].Retrieval <= residual {
			u += s.profit[i]
			residual -= s.sorted[i].Retrieval
			continue
		}
		if residual > 0 {
			u += s.profit[i] * residual / s.sorted[i].Retrieval
		}
		break
	}
	return u
}

// record keeps the incumbent if g improves it; extra >= 0 marks a
// stretching item selected on top of cur.
func (s *Solver) record(g float64, extra int) {
	if g > s.best+solverEps {
		s.best = g
		copy(s.bestSel, s.cur)
		if extra >= 0 {
			s.bestSel[extra] = true
		}
	}
}

// h is the continuation value of carrying stretch st into the next round;
// the one-step objective has none.
func (s *Solver) h(st float64) float64 {
	if s.cont == nil {
		return 0
	}
	return s.cont.at(st)
}

// dfs visits item j: record the incumbent, prune by the Theorem-2 bound,
// then branch on inserting j (stretching or not) before excluding it.
func (s *Solver) dfs(j int, residual, g, sumPK float64) {
	s.stats.Nodes++
	s.record(g+s.h0, -1)
	if j == s.n || residual <= 0 {
		return
	}
	if !s.disableBound && g+s.bound(j, residual)+s.h0 <= s.best+solverEps {
		s.stats.Prunes++
		return
	}
	it := s.sorted[j]
	st := Stretch(it.Retrieval, residual)
	switch {
	case st > 0:
		// Inserting j stretches the knapsack and completes the plan. A
		// δ ≤ 0 cannot beat the g + h(0) recorded above, as h(st) ≤ h(0).
		if delta := s.profit[j] - s.coeff(j, sumPK)*st; delta > 0 {
			s.record(g+delta+s.h(st), j)
		}
	case s.profit[j] > 0:
		// Inserting j keeps the plan within capacity.
		s.cur[j] = true
		s.dfs(j+1, residual-it.Retrieval, g+s.profit[j], sumPK+it.Prob)
		s.cur[j] = false
	}
	s.dfs(j+1, residual, g, sumPK)
}
