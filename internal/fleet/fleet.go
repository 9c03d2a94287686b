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
// tracing, routing, and failure and recovery, and returns the one
// multiclient.Result. This package contributes the configuration, the
// routers and the sweep axes; its sweeps fold into the one
// multiclient.Point, and a multiclient run is the same core with one
// server and no router.
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

// Result is the multiclient Result: a fleet run fills its replica,
// router and failure fields.
type Result = multiclient.Result

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
	return multiclient.RunReplicated(cfg.Base, cfg.Replicas, router, cfg.FailEvery, cfg.RecoverAfter)
}
