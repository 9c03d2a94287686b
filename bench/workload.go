// Package bench is the repository benchmark. It drives the simulator only
// through its public entry points (multiclient.Run, fleet.Run,
// multiclient.GenerateScripts, webgraph.Generate, the obs.Tracer hook and
// the exported APIs of the layers a round crosses) and reports host cost:
// end-to-end numbers from untraced runs, and per-layer numbers from one
// traced pass plus replays of the recorded inputs through each layer's
// public API. The seed is the only input; the simulator receives only the
// Config built from it.
package bench

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"prefetch/internal/adaptive"
	"prefetch/internal/fleet"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// Workload is one named input family. Build returns its configuration
// for a seed; small shrinks it for the smoke test.
type Workload struct {
	Name  string
	Build func(seed uint64, small bool) *Spec
}

// Spec is one built workload: the multiclient configuration (the fleet's
// per-replica base when Fleet is set) and how one iteration runs it.
type Spec struct {
	Base  multiclient.Config
	Fleet *fleet.Config // non-nil: run fleet.Run with Base as its Base
	// ExportTrace makes every timed iteration stream its decision trace
	// through obs.NewWriter into a byte-counting, hashing sink — the
	// trace-export path a user pays for.
	ExportTrace bool
}

// Workloads lists the benchmark workloads in presentation order.
func Workloads() []Workload {
	return []Workload{
		// At concurrency N/4 the scheduler's in-flight scan, client-cache
		// probes and the event queue dominate; Phase A is one shared oracle
		// table and no predictor runs.
		{
			Name: "mc-wide",
			Build: func(seed uint64, small bool) *Spec {
				cfg := multiclient.DefaultConfig()
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 4096, 10, 1024
				if small {
					cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 256, 4, 64
				}
				cfg.Seed = seed
				return &Spec{Base: cfg}
			},
		},
		// Phase A's learned-predictor Observe/Next calls are most of the run;
		// at most 16 transfers are in flight, so the scheduler scan costs
		// nothing, while preemption and promotion exercise priority.
		{
			Name: "mc-learned",
			Build: func(seed uint64, small bool) *Spec {
				cfg := multiclient.DefaultConfig()
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 64, 200, 16
				cfg.DriftEvery = 100
				if small {
					cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 16, 40, 4
					cfg.DriftEvery = 20
				}
				cfg.Predict = predict.Config{Kind: predict.KindPPMEscape}
				cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
				cfg.Seed = seed
				return &Spec{Base: cfg}
			},
		},
		// The only unscripted (inline) path, so no Phase A: server-cache
		// inserts and evictions, aggregate-model writes next to reads,
		// routing, rerouting and replica failure, and a feedback snapshot
		// every round.
		{
			Name: "fleet-churn",
			Build: func(seed uint64, small bool) *Spec {
				cfg := multiclient.DefaultConfig()
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 256, 40, 8
				if small {
					cfg.Clients, cfg.Rounds = 64, 20
				}
				cfg.ServerCacheSlots = 48
				cfg.Predict = predict.Config{Kind: predict.KindShared}
				cfg.WarmServerCache = true
				cfg.Adaptive = adaptive.Config{Kind: adaptive.KindTargetUtil}
				cfg.Seed = seed
				return &Spec{Base: cfg, Fleet: &fleet.Config{
					Replicas:     4,
					Router:       fleet.KindLeastLoaded,
					FailEvery:    150,
					RecoverAfter: 30,
				}}
			},
		},
		// The trace-export path: the mc-wide family with the tracer on, so
		// the obs encoder and the traced snapshot path dominate and an obs
		// change shows here and nowhere else.
		{
			Name: "mc-traced",
			Build: func(seed uint64, small bool) *Spec {
				cfg := multiclient.DefaultConfig()
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 256, 60, 64
				if small {
					cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 32, 10, 8
				}
				cfg.Seed = seed
				return &Spec{Base: cfg, ExportTrace: true}
			},
		},
	}
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// configHash identifies the configuration a result was measured on: two
// results may be paired only when their hashes match. The seed is part of
// the configuration.
func (s *Spec) configHash(workload string) uint64 {
	h := fnv.New64a()
	base := s.Base
	base.Tracer = nil
	fmt.Fprintf(h, "%s|%+v|%t", workload, base, s.ExportTrace)
	if s.Fleet != nil {
		fc := *s.Fleet
		fc.Base = multiclient.Config{}
		fmt.Fprintf(h, "|%+v", fc)
	}
	return h.Sum64()
}

// replicas returns the number of servers the workload runs.
func (s *Spec) replicas() int {
	if s.Fleet != nil {
		return s.Fleet.Replicas
	}
	return 1
}

// outcome is one run's result in the form the checks need. Dump is the
// full multiclient.Result or fleet.Result the fingerprint covers.
type outcome struct {
	dump      any
	perClient []multiclient.ClientResult
	rounds    int64
	elapsed   float64
	busy      float64
	slots     int
	hitRate   float64

	traceBytes int64
	traceHash  uint64
}

// run plays the workload once with the given tracer (nil = untraced).
func (s *Spec) run(tr obs.Tracer) (outcome, error) {
	cfg := s.Base
	cfg.Tracer = tr
	if s.Fleet != nil {
		fc := *s.Fleet
		fc.Base = cfg
		r, err := fleet.Run(fc)
		if err != nil {
			return outcome{}, err
		}
		return outcome{dump: r, perClient: r.PerClient, rounds: r.Access.N(), elapsed: r.Elapsed,
			busy: r.ServerBusy, slots: r.Concurrency * r.Replicas, hitRate: r.HitRate()}, nil
	}
	r, err := multiclient.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	return outcome{dump: r, perClient: r.PerClient, rounds: r.Access.N(), elapsed: r.Elapsed,
		busy: r.ServerBusy, slots: r.Concurrency, hitRate: r.HitRate()}, nil
}

// hashSink is the trace-export destination of mc-traced: it counts and
// hashes the JSONL bytes so the trace enters the output fingerprint
// without being kept.
type hashSink struct {
	h hash.Hash64
	n int64
}

func (w *hashSink) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

// iterate runs one timed iteration: the simulation and, for trace-export
// workloads, the flush of the trace writer.
func (s *Spec) iterate() (outcome, time.Duration, error) {
	var (
		sink *hashSink
		w    *obs.Writer
		tr   obs.Tracer
	)
	if s.ExportTrace {
		sink = &hashSink{h: fnv.New64a()}
		w = obs.NewWriter(sink)
		tr = w
	}
	t0 := time.Now()
	out, err := s.run(tr)
	if err == nil && w != nil {
		err = w.Flush()
	}
	d := time.Since(t0)
	if sink != nil {
		out.traceBytes, out.traceHash = sink.n, sink.h.Sum64()
	}
	return out, d, err
}

// fingerprint is an FNV-64 hash over a canonical dump of the result
// (aggregates and per-client results) and, when exported, the trace.
func (o outcome) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%x", o.dump, o.traceBytes, o.traceHash)
	return h.Sum64()
}

// check verifies the run's invariants: every client completed every
// round, no client used more prefetches than completed, and the servers
// were not busier than their slots allow.
func (o outcome) check(rounds int) error {
	for _, c := range o.perClient {
		if c.Access.N() != int64(rounds) {
			return fmt.Errorf("client %d completed %d/%d rounds", c.Client, c.Access.N(), rounds)
		}
		if c.PrefetchUseful > c.PrefetchCompleted {
			return fmt.Errorf("client %d: %d useful prefetches of %d completed", c.Client, c.PrefetchUseful, c.PrefetchCompleted)
		}
	}
	if limit := o.elapsed * float64(o.slots); o.busy > limit*(1+1e-9) {
		return fmt.Errorf("busy %v slot-seconds exceeds elapsed × slots = %v", o.busy, limit)
	}
	return nil
}
