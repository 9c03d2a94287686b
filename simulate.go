package prefetch

import (
	"prefetch/internal/access"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/sim"
	"prefetch/internal/workload"
)

// Simulation and workload types, re-exported so library users can rerun
// the paper's experiments and build their own.
type (
	// Rand is the deterministic random source every generator consumes.
	Rand = rng.Source
	// Round is one prefetch decision situation of the prefetch-only
	// simulation (probabilities, retrievals, viewing time, request).
	Round = workload.Round
	// PrefetchOnlyConfig parameterises the §4.4 workload.
	PrefetchOnlyConfig = workload.PrefetchOnlyConfig
	// Policy decides what to prefetch for a round: Plan(problem,
	// successors), where successors holds the next round's weighted
	// problems for lookahead policies and is nil in the prefetch-only
	// and prefetch-cache harnesses.
	Policy = sim.Policy
	// PrefetchOnlyOptions tunes the §4.4 harness.
	PrefetchOnlyOptions = sim.PrefetchOnlyOptions
	// PrefetchOnlyResult aggregates one policy's prefetch-only run.
	PrefetchOnlyResult = sim.PrefetchOnlyResult
	// ScatterPoint is one (v, T) observation (Fig. 4).
	ScatterPoint = sim.ScatterPoint
	// MarkovTrace is a pre-drawn Markov walk (Fig. 7 workload).
	MarkovTrace = sim.MarkovTrace
	// CachePlanner combines a prefetch solver with a sub-arbitration.
	CachePlanner = sim.CachePlanner
	// CacheOptions tunes the §5.3 harness (decision tracing).
	CacheOptions = sim.CacheOptions
	// CacheResult aggregates one prefetch-cache run.
	CacheResult = sim.CacheResult
	// MarkovConfig parameterises the request source of Fig. 7.
	MarkovConfig = access.MarkovConfig
	// MarkovSource is an n-state Markov request generator.
	MarkovSource = access.MarkovSource
	// ProbGen generates next-access probability vectors.
	ProbGen = access.ProbGen
	// FlatGen is the paper's flat method (unpredictable next access).
	FlatGen = access.FlatGen
	// SkewyGen is the paper's skewy method (highly predictable).
	SkewyGen = access.SkewyGen
	// ZipfGen produces Zipf-profile probabilities.
	ZipfGen = access.ZipfGen
	// GeometricGen produces geometric-profile probabilities.
	GeometricGen = access.GeometricGen
	// Predictor is THE predictor interface of the public API — the
	// prediction subsystem's Source (internal/predict): Observe feeds an
	// access stream, and NextInto(state, out) writes the predicted
	// distribution of the following access into a page-id vector. Its
	// map-returning Next remains only for the benchmark harness
	// (bench/layers.go). DependencyGraph, PPM, the oracle and the shared
	// aggregate model all implement it, and the multiclient simulation
	// plans over it (MultiClientConfig.Predict).
	Predictor = predict.Source
	// DependencyGraph is an order-1 transition-count predictor.
	DependencyGraph = predict.DependencyGraph
	// PPM is an order-k prediction-by-partial-matching predictor.
	PPM = predict.PPM
)

// Simulation policies.
type (
	// NoPrefetch never prefetches.
	NoPrefetch = sim.NoPrefetch
	// SKPPolicy prefetches the stretch-knapsack solution.
	SKPPolicy = sim.SKPPolicy
	// KPPolicy prefetches the classic-knapsack solution.
	KPPolicy = sim.KPPolicy
	// GreedyPolicy prefetches the density-greedy fill.
	GreedyPolicy = sim.GreedyPolicy
	// PerfectPolicy is the oracle (always fetches the true next item).
	PerfectPolicy = sim.PerfectPolicy
	// CostAwarePolicy trades improvement against network usage.
	CostAwarePolicy = sim.CostAwarePolicy
)

// NewRand returns a deterministic random source; identical seeds give
// identical experiment runs across platforms and Go releases.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// RandomRounds draws `count` random rounds under cfg.
func RandomRounds(r *Rand, cfg PrefetchOnlyConfig, count int) ([]Round, error) {
	return workload.Random(r, cfg, count)
}

// Fig45Config returns the paper's Figure-4/5 workload parameters.
func Fig45Config(n int, gen ProbGen) PrefetchOnlyConfig { return workload.Fig45Config(n, gen) }

// RunPrefetchOnly plays every round through every policy (§4.4 harness).
func RunPrefetchOnly(rounds []Round, policies []Policy, opts PrefetchOnlyOptions) ([]PrefetchOnlyResult, error) {
	return sim.RunPrefetchOnly(rounds, policies, opts)
}

// Fig7MarkovConfig returns the paper's Figure-7 source parameters
// (100 states, out-degree 10–20, viewing times 1–100).
func Fig7MarkovConfig() MarkovConfig { return access.Fig7MarkovConfig() }

// BuildMarkovTrace draws the Fig. 7 workload: a Markov source, per-item
// retrieval times in [rMin, rMax], and a pre-drawn walk.
func BuildMarkovTrace(r *Rand, cfg MarkovConfig, rMin, rMax, requests int) (*MarkovTrace, error) {
	return sim.BuildMarkovTrace(r, cfg, rMin, rMax, requests)
}

// Fig7Planners returns the paper's five prefetch-cache policies.
func Fig7Planners(mode DeltaMode) []CachePlanner { return sim.Fig7Planners(mode) }

// RunPrefetchCache replays a Markov trace under one planner and cache size
// (§5.3 harness). opts carries an optional decision Tracer and the track
// id its events carry; zero options run untraced.
func RunPrefetchCache(trace *MarkovTrace, planner CachePlanner, cacheSize int, opts CacheOptions) (CacheResult, error) {
	return sim.RunPrefetchCache(trace, planner, cacheSize, opts)
}

// NewDependencyGraph returns an empty order-1 predictor.
func NewDependencyGraph() *DependencyGraph { return predict.NewDependencyGraph() }

// NewPPM returns an order-k PPM predictor.
func NewPPM(order int) (*PPM, error) { return predict.NewPPM(order) }
