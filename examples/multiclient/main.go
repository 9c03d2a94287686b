// Multiclient: the paper models one client prefetching over a private
// serial link; this demo asks what happens to the same SKP policy when
// many clients share one server. N concurrent surfers — each with oracle
// next-page probabilities, an SKP planner and a private LRU cache — contend
// for a server that sustains only two simultaneous transfers. As N grows,
// speculative transfers queue behind (and ahead of) everyone's demand
// fetches, so the single-client access improvement erodes and eventually
// goes negative: prefetching can hurt under contention. A shared
// server-side cache claws part of the loss back.
//
//	go run ./examples/multiclient
package main

import (
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

// run plays both client-count sweeps and writes their tables to w.
func run(w io.Writer) error {
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Rounds = 150
	cfg.Seed = 2026

	ns := []int{1, 2, 4, 8, 16}
	const reps = 3

	fmt.Fprintf(w, "site of %d pages, server concurrency %d, %d rounds/client, %d reps\n\n",
		cfg.Site.Pages, cfg.ServerConcurrency, cfg.Rounds, reps)

	fmt.Fprintln(w, "-- no shared server cache --")
	if err := report(w, cfg, ns, reps); err != nil {
		return err
	}

	cfg.ServerCacheSlots = 40
	fmt.Fprintf(w, "\n-- shared server cache of %d slots --\n", cfg.ServerCacheSlots)
	if err := report(w, cfg, ns, reps); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nThe lone client keeps the paper's full access improvement; every")
	fmt.Fprintln(w, "added client converts speculative bandwidth into queueing delay,")
	fmt.Fprintln(w, "and the server cache recovers part of the loss by shortening the")
	fmt.Fprintln(w, "service of popular pages.")
	return nil
}

// report sweeps the client counts ns over cfg and writes one table row
// per count to w.
func report(w io.Writer, cfg prefetch.MultiClientConfig, ns []int, reps int) error {
	clients, err := prefetch.MultiClientClientsAxis(ns)
	if err != nil {
		return err
	}
	points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true, clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %12s %8s %10s\n", "clients", "mean T", "queue wait", "util%", "improve%")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %10.3f %12.3f %7.1f%% %9.1f%%\n",
			p.Clients, p.Access.Mean(), p.QueueWait.Mean(),
			100*p.Utilization.Mean(), 100*p.Improvement.Mean())
	}
	return nil
}
