package prefetch

import (
	"prefetch/internal/fleet"
	"prefetch/internal/multiclient"
)

// Multi-server fleet simulation: the multiclient model spread over R
// replicas (each the same scheduling-arbitrated, cache-equipped server)
// behind a pluggable request router, with deterministic replica
// fail/recover injection.
// FleetConfig composes the whole stack: the embedded Base is a complete
// MultiClientConfig (with its nested Sched, Adaptive and Predict
// sections), and the fleet section adds replica count, router and
// failure regime — one Validate covers it all.
type (
	// FleetConfig parameterises RunFleet.
	FleetConfig = fleet.Config
	// FleetResult is MultiClientResult: a fleet run fills its per-replica
	// table, router name, availability and re-routing metrics.
	FleetResult = fleet.Result
	// FleetReplicaResult is one replica's view of the run.
	FleetReplicaResult = fleet.ReplicaResult
	// FleetRouterKind names a built-in request router.
	FleetRouterKind = fleet.Kind
	// FleetRouter is the pluggable request-placement interface.
	FleetRouter = fleet.Router
	// FleetReplicaState is one replica's routing-time state.
	FleetReplicaState = fleet.ReplicaState
	// FleetPoint is one cell of a fleet sweep: the MultiClientPoint.
	FleetPoint = fleet.Point
	// FleetAxis is one swept dimension of a fleet configuration.
	FleetAxis = fleet.Axis
)

// The built-in request routers.
const (
	// RouterRoundRobin cycles requests over the live replicas.
	RouterRoundRobin = fleet.KindRoundRobin
	// RouterLeastLoaded sends each request to the live replica with the
	// smallest backlog (queued + in-flight requests).
	RouterLeastLoaded = fleet.KindLeastLoaded
	// RouterHash pins each client to a home replica on a consistent-hash
	// ring, so per-replica predictors and caches specialise.
	RouterHash = fleet.KindHash
)

// RouterKinds lists the built-in request routers in canonical order.
func RouterKinds() []FleetRouterKind { return fleet.Kinds() }

// NewFleetRouter builds the named router for a fleet of the given size.
func NewFleetRouter(kind FleetRouterKind, replicas int) (FleetRouter, error) {
	return fleet.NewRouter(kind, replicas)
}

// DefaultFleetConfig returns the multiclient default spread over three
// replicas with affinity routing and no failures.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// RunFleet plays N concurrent sessions against an R-replica fleet.
// Identical seeds replay bit-for-bit; a one-replica fleet without
// failures reproduces RunMultiClient exactly.
func RunFleet(cfg FleetConfig) (FleetResult, error) { return fleet.Run(cfg) }

// SweepFleet runs the cross product of fleet axes (FleetRouterAxis,
// FleetReplicasAxis, FleetFailEveryAxis) over the base config with seed
// replications, on the generic grid engine. The headline experiment is
// router kind × replica count, router-major: FleetRouterAxis first,
// FleetReplicasAxis second.
func SweepFleet(cfg FleetConfig, reps, workers int, axes ...FleetAxis) ([]FleetPoint, error) {
	return fleet.Sweep(cfg, reps, workers, axes...)
}

// FleetRouterAxis sweeps the routing policy.
func FleetRouterAxis(kinds []FleetRouterKind) FleetAxis { return fleet.RouterAxis(kinds) }

// FleetReplicasAxis sweeps the fleet size.
func FleetReplicasAxis(ns []int) (FleetAxis, error) { return fleet.ReplicasAxis(ns) }

// FleetFailEveryAxis sweeps the failure rate (0 disables injection).
func FleetFailEveryAxis(means []float64) (FleetAxis, error) { return fleet.FailEveryAxis(means) }

// Sweep surface for the single-server model: every multiclient sweep is
// one generic axis-based engine (internal/sweep.Grid). Axes compose, so
// one grid covers a client-count, discipline, controller or predictor
// sweep and any cross product of them.
type (
	// MultiClientAxis is one swept dimension of a MultiClientConfig.
	MultiClientAxis = multiclient.Axis
	// MultiClientAxisValue is one labelled setting on an axis.
	MultiClientAxisValue = multiclient.AxisValue
	// MultiClientPoint is one cell of a multiclient or fleet sweep.
	MultiClientPoint = multiclient.Point
)

// SweepMultiClientGrid runs the cross product of axes over the base
// config, reps seed replications per cell (rep r runs at Seed+r), on up
// to workers goroutines. Cells come back row-major — the first axis
// varies slowest — and are deterministic regardless of worker count.
// With baseline true every cell also runs the no-prefetch control and
// records the access improvement.
func SweepMultiClientGrid(cfg MultiClientConfig, reps, workers int, baseline bool, axes ...MultiClientAxis) ([]MultiClientPoint, error) {
	return multiclient.Sweep(cfg, reps, workers, baseline, axes...)
}

// ParetoFrontier reports which points of a group are on its (demand
// latency ↓, speculative throughput ↑) Pareto frontier. A point never
// dominates its exact duplicate, so tied points are marked together.
func ParetoFrontier(group []MultiClientPoint) []bool { return multiclient.ParetoFrontier(group) }

// MultiClientClientsAxis sweeps the client count.
func MultiClientClientsAxis(ns []int) (MultiClientAxis, error) { return multiclient.ClientsAxis(ns) }

// MultiClientDisciplineAxis sweeps the server scheduling discipline.
func MultiClientDisciplineAxis(kinds []SchedKind) MultiClientAxis {
	return multiclient.DisciplineAxis(kinds)
}

// MultiClientControllerAxis sweeps the per-client λ controller.
func MultiClientControllerAxis(kinds []ControllerKind) MultiClientAxis {
	return multiclient.ControllerAxis(kinds)
}

// MultiClientPredictorAxis sweeps the prediction source.
func MultiClientPredictorAxis(kinds []PredictorKind) MultiClientAxis {
	return multiclient.PredictorAxis(kinds)
}
