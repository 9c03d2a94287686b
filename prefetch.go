package prefetch

import (
	"prefetch/internal/core"
)

// Core model types, re-exported from the implementation package.
type (
	// Item is a prefetch candidate: identifier, next-access probability
	// P_i, and retrieval time r_i.
	Item = core.Item
	// Problem is one prefetch decision: candidates, viewing time v, and
	// the universe probability mass (see core.Problem.TotalProb).
	Problem = core.Problem
	// Plan is an ordered prefetch list F = K·⟨z⟩.
	Plan = core.Plan
	// SolverStats reports branch-and-bound search effort.
	SolverStats = core.SolverStats
	// Options tunes SolveSKPOpts (delta mode, stretch price, network λ).
	Options = core.Options
	// DeltaMode selects the Theorem-3-correct or literal-Figure-3 stretch
	// penalty; the literal pseudocode under-counts items excluded before
	// the stretching item.
	DeltaMode = core.DeltaMode
	// SubArbitration picks among cache victims tied on P·r.
	SubArbitration = core.SubArbitration
	// CacheEntry describes a cached item for arbitration.
	CacheEntry = core.CacheEntry
	// ArbitrationResult pairs admitted prefetches with their victims.
	ArbitrationResult = core.ArbitrationResult
	// WeightedProblem is a successor problem with its reach probability,
	// for the depth-2 lookahead extension.
	WeightedProblem = core.WeightedProblem
	// SizedEntry and SizedCandidate support the non-uniform-size
	// extension of the cache arbitration.
	SizedEntry = core.SizedEntry
	// SizedCandidate is a prefetch candidate with an explicit size.
	SizedCandidate = core.SizedCandidate
	// SizedResult reports the sized arbitration outcome.
	SizedResult = core.SizedResult
)

// Solver and arbitration constants.
const (
	// DeltaTheorem3 prices the stretch per Theorem 3 (exact optimum).
	DeltaTheorem3 = core.DeltaTheorem3
	// DeltaPaperTail transcribes Figure 3 literally.
	DeltaPaperTail = core.DeltaPaperTail
	// SubNone breaks victim ties by lowest ID.
	SubNone = core.SubNone
	// SubLFU breaks victim ties by least frequent use.
	SubLFU = core.SubLFU
	// SubDS breaks victim ties by lowest delay-saving profit freq·r.
	SubDS = core.SubDS
	// NoVictim marks an admission that used a free cache slot.
	NoVictim = core.NoVictim
)

// Errors.
var (
	// ErrBadProblem reports a malformed problem instance.
	ErrBadProblem = core.ErrBadProblem
	// ErrBadPlan reports a plan inconsistent with its problem.
	ErrBadPlan = core.ErrBadPlan
)

// SolveSKP maximises the access improvement g° (Eq. 3) exactly over the
// paper's canonical search space.
func SolveSKP(p Problem) (Plan, SolverStats, error) { return core.SolveSKP(p) }

// SolveSKPPaper runs the literal Figure-3 algorithm (tail δ); its plans can
// carry negative true improvement on stretch-heavy instances.
func SolveSKPPaper(p Problem) (Plan, SolverStats, error) { return core.SolveSKPPaper(p) }

// SolveSKPOpts exposes every solver knob (delta mode, stretch price,
// network-usage λ, bound ablation).
func SolveSKPOpts(p Problem, opts Options) (Plan, SolverStats, error) {
	return core.SolveSKPOpts(p, opts)
}

// SolveSKPExhaustive maximises g° over the unrestricted problem (free
// choice of the stretching item), which can beat every canonical plan
// because Theorem 1's exchange argument assumes the swapped list stays
// feasible. Exponential; intended for analysis.
func SolveSKPExhaustive(p Problem) (Plan, float64, error) { return core.SolveSKPExhaustive(p) }

// SolveKP is the classic-knapsack baseline ("KP prefetch"): the SKP search
// with the stretch priced out, so the plan never stretches.
func SolveKP(p Problem) (Plan, error) { return core.SolveKP(p) }

// SolveGreedyPrefetch fills the viewing time greedily in canonical order
// (a cheap, suboptimal baseline for ablations).
func SolveGreedyPrefetch(p Problem) (Plan, error) { return core.SolveGreedyPrefetch(p) }

// SolveSKPStretchAware prices the stretch at an extra cost per unit — the
// depth-2 lookahead surrogate (§4.4/§6).
func SolveSKPStretchAware(p Problem, stretchCost float64) (Plan, SolverStats, error) {
	return core.SolveSKPStretchAware(p, stretchCost)
}

// SolveSKPLookahead derives the stretch price from the successor problems
// (the fast linear surrogate for two-step planning).
func SolveSKPLookahead(p Problem, successors []WeightedProblem) (Plan, SolverStats, error) {
	return core.SolveSKPLookahead(p, successors)
}

// Depth2Stats extends SolverStats with continuation-solve accounting.
type Depth2Stats = core.Depth2Stats

// SolveSKPDepth2 maximises the exact two-step objective: this round's gain
// plus the probability-weighted optimal next-round gain under the stretch
// carried forward (§4.4 intrusion, solved rather than approximated). It
// is the SKP branch-and-bound with that continuation added to each plan's
// value; successors need a finite, non-negative weight and a valid
// problem.
func SolveSKPDepth2(p Problem, successors []WeightedProblem) (Plan, Depth2Stats, error) {
	return core.SolveSKPDepth2(p, successors)
}

// Depth2Value evaluates the exact two-step objective of a plan.
func Depth2Value(p Problem, plan Plan, successors []WeightedProblem) (float64, error) {
	return core.Depth2Value(p, plan, successors)
}

// SolveSKPCostAware maximises g° − λ·Waste (network-usage-aware prefetch,
// §6 future work).
func SolveSKPCostAware(p Problem, lambda float64) (Plan, SolverStats, error) {
	return core.SolveSKPCostAware(p, lambda)
}

// Gain evaluates Eq. 3: the expected access improvement of a plan.
func Gain(p Problem, plan Plan) (float64, error) { return core.Gain(p, plan) }

// Explanation is a human-auditable decomposition of a plan's gain.
type Explanation = core.Explanation

// Explain decomposes a plan's gain into per-item contributions, the
// prefetch schedule, and the stretch penalty.
func Explain(p Problem, plan Plan) (Explanation, error) { return core.Explain(p, plan) }

// Improvement computes E[T|no prefetch] − E[T|plan] directly (requires the
// items to cover the whole universe).
func Improvement(p Problem, plan Plan) (float64, error) { return core.Improvement(p, plan) }

// ExpectedNoPrefetch returns E[T | no prefetch] = Σ P_i·r_i.
func ExpectedNoPrefetch(p Problem) float64 { return core.ExpectedNoPrefetch(p) }

// AccessTime returns the realized access time of a request under a plan
// (Fig. 2 of the paper).
func AccessTime(plan Plan, viewing float64, requested int, retrievalOf func(id int) float64) float64 {
	return core.AccessTime(plan, viewing, requested, retrievalOf)
}

// Stretch returns st = max(0, totalRetrieval − viewing) (Eq. 2).
func Stretch(totalRetrieval, viewing float64) float64 { return core.Stretch(totalRetrieval, viewing) }

// UpperBound returns the Theorem-2 / Eq. 7 bound on any plan's improvement.
func UpperBound(p Problem) (float64, error) { return core.UpperBound(p) }

// LinearRelaxation returns the optimal fractional prefetch proportions
// (Theorem 2) with the canonical item order and objective value.
func LinearRelaxation(p Problem) (sorted []Item, x []float64, value float64, err error) {
	return core.LinearRelaxation(p)
}

// Waste returns the expected wasted network time Σ (1−P_i)·r_i of a plan.
func Waste(plan Plan) float64 { return core.Waste(plan) }

// CanonicalOrder sorts items per the paper's condition (5): descending
// probability, ties by ascending retrieval time.
func CanonicalOrder(items []Item) []Item { return core.CanonicalOrder(items) }

// GainWithCache evaluates Eq. 9: the improvement of prefetching plan F
// while ejecting D from the cache.
func GainWithCache(p Problem, plan Plan, cached, eject []int) (float64, error) {
	return core.GainWithCache(p, plan, cached, eject)
}

// ExpectedNoPrefetchCached returns E[T | no prefetch] given cache contents.
func ExpectedNoPrefetchCached(p Problem, cached []int) float64 {
	return core.ExpectedNoPrefetchCached(p, cached)
}

// Arbitrate admits prefetch candidates against the cache per Figure 6
// (Pr-arbitration with optional LFU/DS sub-arbitration).
func Arbitrate(candidate Plan, cacheEntries []CacheEntry, freeSlots int, sub SubArbitration) ArbitrationResult {
	return core.Arbitrate(candidate, cacheEntries, freeSlots, sub)
}

// DemandVictim picks the mandatory victim for a demand-fetched item.
func DemandVictim(cacheEntries []CacheEntry, sub SubArbitration) (int, bool) {
	return core.DemandVictim(cacheEntries, sub)
}

// ArbitrateSized is the non-uniform-item-size extension of Arbitrate.
func ArbitrateSized(candidates []SizedCandidate, cacheEntries []SizedEntry, freeBytes int64, sub SubArbitration) (SizedResult, error) {
	return core.ArbitrateSized(candidates, cacheEntries, freeBytes, sub)
}
