package core

import "fmt"

// SolverStats reports search effort for the SKP branch-and-bound.
type SolverStats struct {
	Nodes  int64 // decision nodes visited
	Prunes int64 // subtrees cut by the Theorem-2 bound
}

// DeltaMode selects how the branch-and-bound prices the stretch penalty when
// it evaluates inserting a stretching item (Theorem 3's δ).
type DeltaMode int

const (
	// DeltaTheorem3 uses the coefficient required by Theorem 3 / Eq. 3:
	// TotalProb − Σ_{i∈K} P_i, where K is the currently selected set. With
	// this mode the solver returns the exact optimum of g° over the
	// canonically-ordered search space.
	DeltaTheorem3 DeltaMode = iota
	// DeltaPaperTail transcribes the Figure-3 pseudocode literally: the
	// coefficient is Σ_{i=j}^{n} P_i, the probability mass from the
	// candidate item to the end of the canonical order. This under-counts
	// items that were excluded before j and therefore over-estimates the
	// gain of stretching plans on some branches; it is kept so the paper's
	// published behaviour (e.g. SKP losing to no-prefetch at small v in
	// Fig. 5a) can be reproduced and measured.
	DeltaPaperTail
)

// String names the mode for logs and benchmarks.
func (m DeltaMode) String() string {
	switch m {
	case DeltaTheorem3:
		return "theorem3"
	case DeltaPaperTail:
		return "paper-tail"
	default:
		return fmt.Sprintf("DeltaMode(%d)", int(m))
	}
}

// Options tunes the SKP branch-and-bound beyond the paper's base setting.
// The zero value reproduces SolveSKP exactly.
type Options struct {
	// Mode selects the stretch penalty coefficient (see DeltaMode).
	Mode DeltaMode
	// StretchCost adds an extra per-unit price on the stretch time. The
	// paper's §4.4 observes that the stretch "may intrude into the next
	// viewing time and thus reducing the asset for the next prefetch";
	// setting StretchCost to the expected marginal prefetch density of the
	// successor problems prices that intrusion (see SolveSKPStretchAware).
	// +Inf forbids stretching: the search is then the classic KP (SolveKP).
	// Must be >= 0 and not NaN.
	StretchCost float64
	// NetworkLambda trades access improvement against network usage
	// (paper §6 future work): the objective becomes
	// g°(F) − λ·Σ_{i∈F}(1−P_i)·r_i, so each item's effective profit is
	// r_i·((1+λ)·P_i − λ) and low-probability candidates drop out as λ
	// grows. Must be finite and >= 0.
	NetworkLambda float64
	// DisableBound turns off Theorem-2 pruning (for the ablation that
	// counts how many nodes the bound saves).
	DisableBound bool
}

// SolveSKP returns a plan maximising the access improvement g° (Eq. 3) over
// the canonical search space, via branch-and-bound with the Theorem-2 upper
// bound and Theorem-3 incremental evaluation. The empty plan (gain 0) is
// always a candidate, so the returned plan never has negative g°.
func SolveSKP(p Problem) (Plan, SolverStats, error) {
	return SolveSKPOpts(p, Options{})
}

// SolveSKPPaper is SolveSKP with the literal Figure-3 δ formula
// (DeltaPaperTail). The returned plan maximises the tail objective, which
// can differ from the true g° optimum: evaluating it with Gain (Eq. 3) may
// even yield a negative improvement on instances where the tail coefficient
// under-prices the stretch.
func SolveSKPPaper(p Problem) (Plan, SolverStats, error) {
	return SolveSKPOpts(p, Options{Mode: DeltaPaperTail})
}

// SolveSKPOpts is the general entry point; see Options. It runs a fresh
// Solver, so the returned plan owns its items.
func SolveSKPOpts(p Problem, opts Options) (Plan, SolverStats, error) {
	return NewSolver().Solve(p, opts)
}

// Waste returns the expected wasted network time of prefetching the plan:
// Σ_{i∈F} (1−P_i)·r_i. Every prefetch runs to completion (the model never
// aborts), so all of an unrequested item's retrieval is waste while the
// requested item's retrieval is useful work.
func Waste(plan Plan) float64 {
	var w float64
	for _, it := range plan.Items {
		w += (1 - it.Prob) * it.Retrieval
	}
	return w
}
