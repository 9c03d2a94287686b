// Fleet: every run so far hit a single server. This demo spreads the
// same workload over a replicated fleet — each replica a full
// scheduling-arbitrated, cache-equipped server — and compares the three
// built-in request routers (round-robin, least-loaded, consistent-hash
// affinity) with and without deterministic replica churn
// (FleetConfig.FailEvery arms exponential failure injection per replica;
// RecoverAfter fixes the repair time). The headline table is
// availability under churn: the repair regime pins how much fleet
// slot-time is lost, while the router decides how much that loss hurts —
// who absorbs the displaced demand fetches, how many in-flight transfers
// die with the replica, and whether the per-replica caches and
// predictors that affinity routing specialised survive the outage.
//
//	go run ./examples/fleet
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"prefetch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the sweep and writes its tables to w.
func run(w io.Writer) error {
	cfg := prefetch.DefaultFleetConfig()
	cfg.Base.Clients = 12
	cfg.Base.Rounds = 300
	cfg.Base.Seed = 2026
	cfg.Base.ServerCacheSlots = 24
	const reps = 2
	const failEvery, recoverAfter = 60.0, 20.0

	routers := prefetch.RouterKinds()
	replicas, err := prefetch.FleetReplicasAxis([]int{1, 2, 4})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "router × replica-count sweep, %d clients, %d rounds/client, %d reps\n",
		cfg.Base.Clients, cfg.Base.Rounds, reps)
	fmt.Fprintf(w, "(each replica: concurrency %d, %d cache slots)\n",
		cfg.Base.ServerConcurrency, cfg.Base.ServerCacheSlots)

	demandUnderChurn := map[prefetch.FleetRouterKind]float64{}
	for _, churn := range []bool{false, true} {
		c := cfg
		label := "calm fleet, no failures"
		if churn {
			c.FailEvery = failEvery
			c.RecoverAfter = recoverAfter
			label = fmt.Sprintf("churn: each replica fails every ~%g, repairs take %g",
				c.FailEvery, c.RecoverAfter)
		}
		points, err := prefetch.SweepFleet(c, reps, 0, prefetch.FleetRouterAxis(routers), replicas)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s --\n", label)
		fmt.Fprintf(w, "%-13s %8s %10s %10s %10s %7s %7s %9s %6s\n",
			"router", "replicas", "demand T", "mean T", "q wait", "hit%", "avail%", "rerouted", "lost")
		for _, p := range points {
			fmt.Fprintf(w, "%-13s %8s %10.3f %10.3f %10.3f %6.1f%% %6.1f%% %9d %6d\n",
				p.Labels[0], p.Labels[1],
				p.DemandAccess.Mean(), p.Access.Mean(), p.QueueWait.Mean(),
				100*p.HitRatio.Mean(), 100*p.Availability.Mean(),
				p.ReRoutes, p.LostTransfers)
			if churn && p.Labels[1] == "4" {
				demandUnderChurn[prefetch.FleetRouterKind(p.Labels[0])] = p.DemandAccess.Mean()
			}
		}
	}

	// The sweep is only interesting if the routing policy actually moves
	// the needle once replicas start dying: routers that agree on every
	// metric would mean the placement decision doesn't matter.
	first, rest := demandUnderChurn[routers[0]], false
	for _, r := range routers[1:] {
		if demandUnderChurn[r] != first {
			rest = true
		}
	}
	if !rest {
		return errors.New("demand latency identical across routers under churn — injection too weak for this configuration")
	}

	fmt.Fprintln(w, "\nThe repair regime sets the availability column — roughly the same")
	fmt.Fprintln(w, "fraction of fleet slot-time is lost whoever routes — but the routers")
	fmt.Fprintln(w, "split the damage differently. Least-loaded wins latency in both")
	fmt.Fprintln(w, "regimes: scheduler feedback spreads bursts over idle replicas while")
	fmt.Fprintln(w, "the fleet is calm and routes around the hole automatically when a")
	fmt.Fprintln(w, "replica dies. Affinity (hash) routing pays twice for pinning each")
	fmt.Fprintln(w, "client to a home replica — a burst of home traffic queues on one")
	fmt.Fprintln(w, "server while its siblings idle, and a dead home replica scatters its")
	fmt.Fprintln(w, "clients onto caches that never saw them. Round-robin sits between:")
	fmt.Fprintln(w, "blind but even. A one-replica fleet is the degenerate column: every")
	fmt.Fprintln(w, "failure is a full outage and demands park until the repair completes,")
	fmt.Fprintln(w, "so the router label doesn't matter — all three collapse to the same")
	fmt.Fprintln(w, "run.")
	return nil
}
