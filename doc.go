// Package prefetch implements the performance model of speculative
// prefetching from Tuah, Kumar & Venkatesh, "A Performance Model of
// Speculative Prefetching in Distributed Information Systems"
// (IPPS/SPDP 1999), together with everything needed to reproduce the
// paper's evaluation and several of its proposed extensions.
//
// # The model in one paragraph
//
// While an application idles for a viewing time v, candidate items can be
// prefetched over a serial network link. Item i will be requested next with
// probability P_i and takes r_i time to retrieve. A prefetch list F = K·⟨z⟩
// retrieves all of K within v; the last item z may overrun by the stretch
// time st(F) = max(0, Σ r − v). Prefetches are never aborted, so a wrong
// guess delays a demand fetch by the stretch. The expected reduction in
// access time (the access improvement) is
//
//	g°(F) = Σ_{i∈F} P_i·r_i − (1 − Σ_{i∈K} P_i)·st(F)
//
// and maximising it is the Stretch Knapsack Problem (SKP), solved exactly
// by SolveSKP via branch-and-bound with the paper's Theorem-2 bound.
//
// # Quick start
//
//	problem := prefetch.Problem{
//		Items: []prefetch.Item{
//			{ID: 1, Prob: 0.6, Retrieval: 4},
//			{ID: 2, Prob: 0.3, Retrieval: 5},
//			{ID: 3, Prob: 0.1, Retrieval: 2},
//		},
//		Viewing: 6,
//	}
//	plan, _, err := prefetch.SolveSKP(problem)
//	// plan.IDs() == [1, 2]; prefetch.Gain(problem, plan) == 2.7
//
// # Layout
//
// The root package is the public API. Implementation lives under
// internal/: core (model + solvers, the classic-KP baseline included),
// access (probability generators and Markov sources), predict (the
// pluggable prediction subsystem — the oracle and every learned source,
// built on shared count stores; see MultiClientConfig.Predict), cache
// (the client cache container), sim (the paper's Monte-Carlo harnesses),
// netsim (an event-driven validation simulator, on its own 4-ary event
// heap), eventq (the binary-heap priority queue under the WFQ discipline,
// and the free lists of the schedulers' pooled nodes), multiclient (N
// concurrent sessions contending for a shared server — see
// RunMultiClient), schedsrv (the server's pluggable scheduling
// subsystem), stats, plot, rng and sweep.
// The cmd/ tools regenerate every figure of the paper.
//
// # Beyond the paper: shared-server contention
//
// The paper's model gives each client a private serial link. The
// multiclient simulation (RunMultiClient, CompareMultiClient,
// SweepMultiClientGrid) runs N concurrent surfer sessions — each with its own
// SKP planner, derived random stream and client cache — against one server
// with bounded transfer concurrency and an optional shared server-side
// cache, reporting per-client and aggregate access times, queueing delay
// and server utilisation. Identical master seeds replay bit-for-bit.
//
// # Server scheduling: arbitrating speculation against demand
//
// Under contention, how the shared server arbitrates speculative vs.
// demand traffic dominates prefetching's net benefit, so that decision
// layer is pluggable (MultiClientConfig.Sched, a SchedConfig). Built-in
// disciplines: SchedFIFO (the seed behaviour — speculation and demand
// queue equally), SchedPriority (strict demand priority, optionally
// preempting in-flight speculative transfers), SchedWFQ (weighted fair
// queueing over per-client demand/speculative flows) and SchedShaped
// (per-client token-bucket bandwidth shaping; demand runs on credit
// debt). An admission controller (SchedConfig.AdmitUtil) drops or defers
// speculative requests while a sliding-window utilisation estimate is
// above threshold. A demand arrival for a page whose prefetch is still
// queued promotes that transfer into the demand class. Compare
// disciplines over identical workloads with a MultiClientDisciplineAxis
// sweep or examples/scheduling.
//
// # Adaptive speculation: closed-loop λ control
//
// The paper's §6 extension prices wasted network time into the
// objective, g°(F) − λ·Waste(F), but leaves λ a static knob tuned
// against a private link. Under contention the true price of
// speculation is the congestion it inflicts on everyone, so each
// multiclient client can instead run a feedback controller
// (MultiClientConfig.Adaptive, a ControllerConfig): every browsing
// round it observes the server's congestion feedback (SchedFeedback —
// sliding-window utilisation, queue depths and the admission deferral
// total) together with its own demand queueing delay and admission
// drops, and the controller sets the λ the round's plan is solved
// with. Built-in controllers: ControllerStatic (λ fixed at Lambda0; the
// default, and with Lambda0 = 0 bit-for-bit the plain planner),
// ControllerAIMD (multiplicative back-off on congestion, additive
// recovery), ControllerTargetUtil (integral control toward a utilisation
// setpoint) and ControllerDelayGradient (backs off when the client's
// own demand delay rises round-over-round). Controllers are pure
// functions of the feedback stream — identical seeds replay
// bit-for-bit, and with zero congestion every controller converges to
// the static-λ plan. Compare controllers over identical workloads with
// a MultiClientControllerAxis sweep or examples/adaptive, which shows
// closed-loop λ on a plain FIFO server recovering nearly all of the
// priority discipline's demand-latency win at N=16.
//
// # Prediction: oracle vs learned access models
//
// Everything above still hands the planner the surfer's true next-page
// distribution — the access knowledge the paper presupposes (§1) but no
// deployed prefetcher has. The prediction subsystem
// (MultiClientConfig.Predict, a PredictConfig) makes that knowledge a
// pluggable Predictor (the single predictor interface of this API,
// which writes each prediction into a page-id vector with NextInto; its
// map-returning Next remains only for the benchmark harness in bench/):
// PredictorOracle plans over the true distribution (the default,
// bit-for-bit the previous behaviour), PredictorDepGraph and
// PredictorPPM train an order-1 dependency graph or an order-k PPM model
// online on the client's own access stream (PredictConfig.ColdStart
// picks the cold-start fallback), and PredictorShared plans over one
// server-side aggregate model pooled across every client's stream —
// which, with MultiClientConfig.WarmServerCache, also drives server-side
// prefetching: the server pre-admits the model's top-probability pages
// into its shared cache between rounds (Result.WarmInserted/WarmHits).
// Each run reports the per-round prediction L1 error against the truth,
// the wasted-prefetch fraction and the zero-fetch hit ratio, so the
// oracle-vs-learned gap is measurable per discipline and per controller:
// a MultiClientPredictorAxis sweep isolates the predictor axis, and
// crossing it with a MultiClientControllerAxis shows each controller's
// (demand latency, speculative throughput) Pareto frontier — the view
// that keeps a weak predictor visible when adaptive λ masks it in raw
// latency. See examples/learned for the gap table at N=16 under FIFO
// and priority scheduling.
//
// # Non-stationary workloads: drifting hot sets
//
// The paper's model — and every sweep above — presumes a stationary
// access distribution, the regime in which a predictor that hoards
// evidence forever is optimal. MultiClientConfig.DriftEvery makes the
// workload non-stationary: every DriftEvery browsing rounds each
// surfer's preference vector (the hot set biasing its link choices and
// teleports) is re-drawn from a per-client derived drift stream, so
// runs stay deterministic and replay bit-for-bit while the hot set
// moves, and the oracle source stays exact across phases. Three
// drift-capable prediction sources ride the same axis: PredictorDecay
// (exponentially decayed transition counts, PredictConfig.HalfLife
// observations to half weight — the source that re-converges after a
// shift, property-tested against the dependency graph which does not),
// PredictorMixture (a popularity×transition blend at
// PredictConfig.MixWeight) and PredictorPPMEscape (PPM with escape
// blending across context orders down to global frequencies, replacing
// the hard cold-start fallback). See examples/drift for the stationary
// predictor ranking inverting under drift.
//
// # Fleet: replicated servers, routing and failures
//
// Every layer above still funnels all N clients into one server. The
// fleet simulation (RunFleet, a FleetConfig) replicates that server R
// times and puts a pluggable Router in front. It is not a second
// simulator: the clients and servers are the multiclient ones, and a
// multiclient run is the same core with one server, no router and no
// failures. Each replica is a full scheduling-arbitrated, cache-equipped,
// predictor-carrying server. Of the built-in routers,
// RouterRoundRobin spreads requests over live replicas,
// RouterLeastLoaded picks the smallest backlog (queued + in-flight
// requests), and RouterHash pins each client to a home replica on a
// consistent-hash ring so caches and shared predictors specialise per
// replica. FleetConfig
// composes the whole stack — Base is a complete MultiClientConfig, the
// fleet section adds Replicas, Router and the failure regime, and one
// Validate covers it all. With FailEvery > 0 replicas crash on derived
// random schedules and repair after RecoverAfter: a crash loses the
// replica's queued and in-flight transfers, re-routes the displaced
// demand fetches to live replicas (or parks them for a total outage),
// and cold-starts the replica's scheduler and cache on recovery while
// its learned predictor state survives. RunFleet returns the same
// result type as RunMultiClient (FleetResult is MultiClientResult), with
// its per-replica breakdown, availability, re-route and lost-transfer
// fields filled; the trace gains route, reroute and replica
// fail/recover events, each stamped with its replica. A one-replica
// fleet without failures reproduces RunMultiClient bit for bit, and
// identical seeds replay byte-identical traces under any GOMAXPROCS.
// SweepFleet over FleetRouterAxis × FleetReplicasAxis crosses router
// kind × replica count under a failure regime; see examples/fleet for
// availability under churn.
//
// # One sweep engine
//
// All parameter studies run on one generic grid engine
// (SweepMultiClientGrid for the single-server model, SweepFleet for the
// fleet): compose axes — MultiClientClientsAxis,
// MultiClientDisciplineAxis, MultiClientControllerAxis,
// MultiClientPredictorAxis; FleetRouterAxis, FleetReplicasAxis,
// FleetFailEveryAxis — and the engine runs their cross product
// row-major (first axis slowest) with seed-replicated repetitions,
// validating every cell up front, deterministic for any worker count.
// Both fold each replication into the one sweep cell (FleetPoint is
// MultiClientPoint), and ParetoFrontier marks a group's
// (demand latency, speculative throughput) frontier.
//
// # Observability: the decision trace
//
// Every aggregate above is a mean over thousands of individual
// speculation decisions, and the paper's argument is precisely about
// those decisions — each unit of access improvement is bought with
// λ-priced wasted bandwidth. The observability layer (internal/obs,
// re-exported here as Tracer, TraceEvent, TraceWriter, TraceCollector,
// MetricsRegistry) records them: a typed event stream stamped with the
// simulated clock covering round lifecycle, demand vs speculative
// issue and completion, the post-run useful/wasted resolution of every
// prefetch (carrying the predictor candidate probability that
// justified it), λ updates with their congestion-feedback snapshots,
// server queue and admission verdicts, and cache traffic. Any harness
// accepts a Tracer (MultiClientConfig.Tracer, PrefetchOnlyOptions,
// CacheOptions, SessionOptions); nil means disabled at the cost of one
// branch per would-be event. ReadDecisionTrace parses a trace back,
// WriteChromeTrace converts it into a Perfetto/chrome://tracing
// timeline, MetricsRegistry.Accumulate folds it into deterministic
// counters and histograms, and cmd/traceq answers the common questions
// (queue-delay distributions, λ trajectories, per-client wasted-page
// attribution) from the trace alone. Because a run is single-goroutine
// on one event clock, a fixed seed yields a byte-identical trace under
// any GOMAXPROCS — CI diffs the traces to enforce it.
//
// # Determinism invariants
//
// Everything above rests on bit-for-bit replay: one (seed, config)
// pair must reproduce identical metrics under any GOMAXPROCS, Go
// release, and map iteration order. Those invariants are mechanized by
// a static-analysis suite, internal/lint, run by cmd/simlint (and by
// `make lint`, the first step of `make test`):
//
//   - detrand forbids math/rand and wall-clock time in the simulation
//     packages — randomness flows through internal/rng streams derived
//     with rng.Derive, time through the simulated clock;
//   - maporder flags order-dependent work (float accumulation, unsorted
//     output collection, Observe-style training) under map iteration;
//   - validatecfg requires exported Config structs with Validate()
//     error methods to be validated before their fields are read on
//     exported entry paths;
//   - floatdet flags float reductions performed from goroutines into
//     shared variables, whose rounding order follows scheduling;
//   - shardpure holds goroutine workers in simulation packages to the
//     Phase-A purity contract — captured state is written only through
//     per-worker indexed slots and never read while a sibling writes;
//   - rnglabel keeps rng.Derive stream labels collision-free: no
//     duplicate literals per function, no loop-invariant labels inside
//     loops, no separator-less label construction;
//   - obskind keeps the obs event union's registries in sync — every
//     Kind in Kinds(), every Event field in the hand-rolled encoder,
//     every Kind switch arm a declared constant;
//   - poolreuse enforces the eventq.FreeList ownership contract — no
//     use after Put, no double Put, reference fields cleared first;
//   - snapshotmut keeps schedsrv.Feedback snapshots read-only outside
//     their defining package.
//
// A finding that is understood and acceptable is suppressed with a
// justified directive, `//lint:allow <analyzer> <reason>`, on the
// flagged line or the line above; `simlint -show-allowed ./...` audits
// every suppression. See the package documentation of
// prefetch/internal/lint for the analyzer details and escape-hatch
// semantics.
package prefetch
