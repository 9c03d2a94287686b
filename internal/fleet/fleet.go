// Package fleet scales the multiclient model out: R replicas behind a
// pluggable router that places every client request on one of them. The
// single-server model asks how N sessions contend for one link; the fleet
// asks where speculation should live when there are several — spread
// requests for load (round-robin, least-loaded) and every replica sees a
// diluted access stream, or pin clients to homes (consistent hashing) and
// each replica's shared predictor and cache specialise on its own
// clients.
//
// There is no second simulator here. The clients and servers are the
// multiclient core's (multiclient.RunReplicated), which already owns
// replication: per-server shared models and caches, replica-stamped
// tracing, routing, and failure and recovery. This package contributes
// the configuration, the routers, the result shape and the sweeps; a
// multiclient run is the same core with one server and no router.
//
// Replicas fail. Each one draws an exponential time-to-failure from its
// own derived RNG stream; a failure loses the scheduler backlog, every
// in-flight transfer and the server cache, and the replica returns after
// a fixed repair time with a cold cache and an empty queue. The per-
// replica aggregate predictor survives failures — it models the durable
// popularity state a real fleet would keep off the serving path — which
// is precisely the state affinity routing specialises. Clients blocked
// on a failed replica re-route to a live one (or park until a recovery
// when the whole fleet is down); speculative transfers lost to a failure
// are simply gone, and the page stays demand-fetchable.
//
// Determinism: one netsim.Clock, every stream derived from the master
// seed (clients use the multiclient labels; replica i's failure clock
// is "replica/i/fail"), routers are pure functions — runs replay bit for
// bit at any GOMAXPROCS, and a single-replica fleet with failures
// disabled reproduces the multiclient timeline exactly.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"prefetch/internal/multiclient"
	"prefetch/internal/stats"
)

// ErrBadConfig reports an invalid fleet configuration.
var ErrBadConfig = errors.New("fleet: bad config")

// Config parameterises one fleet simulation.
type Config struct {
	// Base carries everything the single-server model already knows:
	// clients, rounds, per-server concurrency and caching, scheduling
	// discipline, admission, the λ controller, the prediction source,
	// the site and the master seed. Every replica is configured
	// identically from it. Base.Tracer, when enabled, receives the
	// fleet trace: replica-side events carry a 1-based Replica stamp,
	// and routing decisions, failures and recoveries appear as their
	// own event kinds.
	Base multiclient.Config

	// Replicas is the fleet size (>= 1).
	Replicas int

	// Router selects the placement policy ("" = round-robin).
	Router Kind

	// FailEvery, when > 0, arms failure injection: each replica's time
	// between recovery and its next failure is exponential with this
	// mean, drawn from the replica's own derived stream.
	FailEvery float64

	// RecoverAfter is the fixed repair time after a failure. Required
	// > 0 when FailEvery > 0.
	RecoverAfter float64
}

// DefaultConfig returns the multiclient default spread over three
// replicas with affinity routing and no failures.
func DefaultConfig() Config {
	return Config{
		Base:     multiclient.DefaultConfig(),
		Replicas: 3,
		Router:   KindHash,
	}
}

// Validate checks the configuration, including the embedded single-
// server section.
func (cfg Config) Validate() error {
	if err := cfg.Base.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	switch {
	case cfg.Replicas < 1:
		return fmt.Errorf("%w: %d replicas", ErrBadConfig, cfg.Replicas)
	case !finiteNonNeg(cfg.FailEvery):
		return fmt.Errorf("%w: fail-every %v", ErrBadConfig, cfg.FailEvery)
	case !finiteNonNeg(cfg.RecoverAfter):
		return fmt.Errorf("%w: recover-after %v", ErrBadConfig, cfg.RecoverAfter)
	case cfg.FailEvery > 0 && !(cfg.RecoverAfter > 0):
		return fmt.Errorf("%w: failure injection needs recover-after > 0 (got %v)", ErrBadConfig, cfg.RecoverAfter)
	}
	if _, err := NewRouter(cfg.Router, cfg.Replicas); err != nil {
		return err
	}
	return nil
}

// finiteNonNeg reports whether v is a finite time >= 0. NaN fails the
// comparison; +Inf would make a failure draw's rate zero (FailEvery) or a
// repair never end (RecoverAfter).
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// ReplicaResult is one replica's view of the run. Scheduler counters run
// across failures: a failure empties the replica's scheduler, which then
// recovers in place and keeps counting.
type ReplicaResult = multiclient.ReplicaResult

// Result aggregates one fleet run. The single-server fields carry the
// same meaning as multiclient.Result; server-side counters are summed
// over the fleet.
type Result struct {
	Clients     int
	Replicas    int
	Concurrency int // per replica
	Router      string
	Discipline  string
	Controller  string
	Predictor   string

	PerClient  []multiclient.ClientResult
	PerReplica []ReplicaResult

	Access       stats.Accumulator
	DemandAccess stats.Accumulator
	QueueWait    stats.Accumulator
	Lambda       stats.Accumulator
	L1Error      stats.Accumulator

	// Elapsed is the time of the last meaningful fleet event (transfer
	// completion, round end, failure or recovery) — the denominator for
	// utilisation and availability.
	Elapsed         float64
	ServerBusy      float64 // summed over replicas and incarnations
	ServerRequests  int64
	ServerCacheHits int64

	SpecCompleted    int64
	Preemptions      int64
	PrefetchDropped  int64
	PrefetchDeferred int64

	PrefetchCompleted int64
	PrefetchUseful    int64

	WarmInserted int64
	WarmHits     int64

	Failures      int64   // replica failures injected
	Recoveries    int64   // replicas that came back
	ReRoutes      int64   // demand fetches displaced by a failure
	LostTransfers int64   // outstanding transfers lost to failures
	Downtime      float64 // summed replica downtime
}

// Availability returns the fraction of replica-time the fleet was up:
// 1 − Downtime / (Elapsed × Replicas), clamped at 0 for the edge where
// a repair completes after the last workload event.
func (r Result) Availability() float64 {
	if r.Elapsed <= 0 {
		return 1
	}
	a := 1 - r.Downtime/(r.Elapsed*float64(r.Replicas))
	if a < 0 {
		return 0
	}
	return a
}

// Utilization returns the fraction of fleet slot-time spent serving.
func (r Result) Utilization() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.ServerBusy / (r.Elapsed * float64(r.Concurrency) * float64(r.Replicas))
}

// HitRate returns the fleet-wide server cache hit rate.
func (r Result) HitRate() float64 {
	if r.ServerRequests == 0 {
		return 0
	}
	return float64(r.ServerCacheHits) / float64(r.ServerRequests)
}

// SpecThroughput returns completed speculative transfers per unit time.
func (r Result) SpecThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.SpecCompleted) / r.Elapsed
}

// WastedPrefetchFraction returns the fraction of completed speculative
// transfers whose page never served a demand access.
func (r Result) WastedPrefetchFraction() float64 {
	if r.PrefetchCompleted == 0 {
		return 0
	}
	return 1 - float64(r.PrefetchUseful)/float64(r.PrefetchCompleted)
}

// HitRatio returns the fraction of rounds answered without a network
// fetch.
func (r Result) HitRatio() float64 {
	if r.Access.N() == 0 {
		return 0
	}
	return 1 - float64(r.DemandAccess.N())/float64(r.Access.N())
}

// Run plays the full fleet simulation: all clients start browsing at
// time zero, replicas fail and recover on their derived schedules, and
// the event loop drains every transfer. The simulation is the multiclient
// core spread over cfg.Replicas servers behind the configured router.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	router, err := NewRouter(cfg.Router, cfg.Replicas)
	if err != nil {
		return Result{}, err
	}
	mc, per, reroutes, err := multiclient.RunReplicated(cfg.Base, cfg.Replicas, router, cfg.FailEvery, cfg.RecoverAfter)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Clients:           mc.Clients,
		Replicas:          cfg.Replicas,
		Concurrency:       mc.Concurrency,
		Router:            router.Name(),
		Discipline:        mc.Discipline,
		Controller:        mc.Controller,
		Predictor:         mc.Predictor,
		PerClient:         mc.PerClient,
		PerReplica:        per,
		Access:            mc.Access,
		DemandAccess:      mc.DemandAccess,
		QueueWait:         mc.QueueWait,
		Lambda:            mc.Lambda,
		L1Error:           mc.L1Error,
		Elapsed:           mc.Elapsed,
		ServerBusy:        mc.ServerBusy,
		ServerRequests:    mc.ServerRequests,
		ServerCacheHits:   mc.ServerCacheHits,
		SpecCompleted:     mc.SpecCompleted,
		Preemptions:       mc.Preemptions,
		PrefetchDropped:   mc.PrefetchDropped,
		PrefetchDeferred:  mc.PrefetchDeferred,
		PrefetchCompleted: mc.PrefetchCompleted,
		PrefetchUseful:    mc.PrefetchUseful,
		WarmInserted:      mc.WarmInserted,
		WarmHits:          mc.WarmHits,
		ReRoutes:          reroutes,
	}
	for _, rr := range per {
		res.Failures += int64(rr.Failures)
		res.Recoveries += int64(rr.Recoveries)
		res.LostTransfers += rr.Lost
		res.Downtime += rr.Downtime
	}
	return res, nil
}
