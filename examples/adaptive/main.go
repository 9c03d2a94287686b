// Adaptive: PR 2's scheduling demo fixed contention collapse on the
// server side — priority scheduling cut N=16 demand latency ~10x versus
// FIFO, but only by changing the server. This demo fixes it from the
// client side instead: each client runs a closed-loop λ controller
// (internal/adaptive) that watches the congestion feedback the shared
// server exposes (sliding-window utilisation, its own demand queueing
// delay, admission drop/defer counts) and re-prices its speculation by
// solving the paper's §6 cost-aware objective g°(F) − λ·Waste(F) at a λ
// that tracks observed load:
//
//   - static          — λ fixed at 0: the paper's planner, which prices
//     speculation against a private link and floods a shared server.
//   - aimd            — multiplicative λ back-off on congested rounds,
//     additive recovery on calm ones.
//   - target-util     — integral control of λ toward a utilisation
//     setpoint.
//   - delay-gradient  — backs off when the client's own demand delay
//     rises round-over-round; needs no server-side signal at all.
//
// The headline: under the plain FIFO discipline — the server doing
// nothing clever at all — adaptive λ recovers nearly all of priority
// scheduling's demand-latency win (and ≥ 2x over static λ is the
// acceptance bar; the sweep below lands around 10x at N=16).
//
//	go run ./examples/adaptive
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

// run sweeps the controllers, then the priority reference, and writes both tables to w.
func run(w io.Writer) error {
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Rounds = 120
	cfg.Seed = 2026

	ctls := prefetch.ControllerKinds()
	ns := []int{4, 8, 16}
	const reps = 3

	fmt.Fprintf(w, "site of %d pages, server concurrency %d, %d rounds/client, %d reps, FIFO discipline\n",
		cfg.Site.Pages, cfg.ServerConcurrency, cfg.Rounds, reps)
	fmt.Fprintln(w, "\n-- closed-loop λ control on a plain FIFO server --")
	header(w)
	var static16, aimd16 float64
	for _, n := range ns {
		cfg.Clients = n
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true, prefetch.MultiClientControllerAxis(ctls))
		if err != nil {
			return err
		}
		for i, p := range points {
			row(w, n, p.Labels[0], p.DemandAccess.Mean(), p.Access.Mean(), p.Lambda.Mean(), p.SpecThroughput.Mean())
			if n == 16 {
				switch ctls[i] {
				case prefetch.ControllerStatic:
					static16 = p.DemandAccess.Mean()
				case prefetch.ControllerAIMD:
					aimd16 = p.DemandAccess.Mean()
				}
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "-- reference: static λ under priority scheduling (the server-side fix) --")
	header(w)
	for _, n := range ns {
		cfg.Clients = n
		cfg.Sched = prefetch.SchedConfig{Kind: prefetch.SchedPriority}
		cfg.Adaptive = prefetch.ControllerConfig{}
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true,
			prefetch.MultiClientControllerAxis([]prefetch.ControllerKind{prefetch.ControllerStatic}))
		if err != nil {
			return err
		}
		p := points[0]
		row(w, n, "priority+static", p.DemandAccess.Mean(), p.Access.Mean(), p.Lambda.Mean(), p.SpecThroughput.Mean())
	}

	fmt.Fprintf(w, "\nN=16 FIFO demand access: static λ %.2f vs aimd %.2f — %.1fx better.\n",
		static16, aimd16, static16/aimd16)
	fmt.Fprintln(w, "\nThe static planner optimises the paper's private-link objective and")
	fmt.Fprintln(w, "drowns the shared server in speculation everyone else's demands queue")
	fmt.Fprintln(w, "behind. Closing the loop prices speculation at its observed congestion")
	fmt.Fprintln(w, "cost: λ rises until only near-certain prefetches survive, demand")
	fmt.Fprintln(w, "latency collapses back toward the priority-discipline reference, and")
	fmt.Fprintln(w, "when load clears λ drains back to its floor and full speculation")
	fmt.Fprintln(w, "resumes — no server-side scheduling changes required.")
	return nil
}

func header(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-16s %10s %10s %8s %10s\n",
		"clients", "controller", "demand T", "mean T", "mean λ", "spec/s")
}

func row(w io.Writer, n int, label string, demandT, meanT, lambda, spec float64) {
	fmt.Fprintf(w, "%-8d %-16s %10.3f %10.3f %8.3f %10.3f\n", n, label, demandT, meanT, lambda, spec)
}
