// Learned: every demo so far handed the planner the surfer's true
// next-page distribution — the paper's presupposed access knowledge, an
// oracle no deployed prefetcher has. This demo swaps the oracle for the
// prediction subsystem's learned sources (internal/predict) and measures
// what the oracle-vs-learned gap costs under contention, per scheduling
// discipline and per λ controller:
//
//   - oracle    — the true distribution (the paper's assumption);
//   - depgraph  — an order-1 dependency graph learned online from each
//     client's own access stream;
//   - ppm       — order-2 prediction by partial matching, same stream.
//
// Two questions drive the tables. First, the raw gap: how much demand
// latency and wasted prefetching does a learned model cost at N=16 under
// each discipline? Second, the masking question (ROADMAP): adaptive λ
// control rescues the oracle planner from contention collapse — does that
// win survive when the distribution is learned, and does the controller
// hide a weak predictor? The per-controller Pareto marks (* on the
// (demand T, spec/s) frontier) keep weak predictors visible even when
// closed-loop λ flattens raw latency differences.
//
//	go run ./examples/learned
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

// run plays the sweep and writes its tables to w.
func run(w io.Writer) error {
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Clients = 16
	cfg.Rounds = 120
	cfg.Seed = 2026

	preds := []prefetch.PredictorKind{
		prefetch.PredictorOracle, prefetch.PredictorDepGraph, prefetch.PredictorPPM,
	}
	ctls := []prefetch.ControllerKind{prefetch.ControllerStatic, prefetch.ControllerAIMD}
	discs := []prefetch.SchedKind{prefetch.SchedFIFO, prefetch.SchedPriority}
	const reps = 2

	fmt.Fprintf(w, "oracle vs learned prefetching, %d clients, server concurrency %d, %d rounds/client, %d reps\n",
		cfg.Clients, cfg.ServerConcurrency, cfg.Rounds, reps)
	fmt.Fprintln(w, "(* = on the controller's (demand T, spec/s) Pareto frontier)")

	// gap[disc][ctl][pred] demand access means, for the closing summary.
	gap := map[prefetch.SchedKind]map[prefetch.ControllerKind]map[prefetch.PredictorKind]float64{}
	for _, disc := range discs {
		c := cfg
		c.Sched = prefetch.SchedConfig{Kind: disc}
		points, err := prefetch.SweepMultiClientGrid(c, reps, 0, false,
			prefetch.MultiClientControllerAxis(ctls), prefetch.MultiClientPredictorAxis(preds))
		if err != nil {
			return err
		}
		gap[disc] = map[prefetch.ControllerKind]map[prefetch.PredictorKind]float64{}
		for ci, ctl := range ctls {
			fmt.Fprintf(w, "\n-- discipline %s, controller %s --\n", disc, ctl)
			fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %8s %10s %7s\n",
				"predictor", "demand T", "mean T", "waste%", "L1 err", "hit%", "spec/s", "pareto")
			gap[disc][ctl] = map[prefetch.PredictorKind]float64{}
			group := points[ci*len(preds) : (ci+1)*len(preds)]
			frontier := prefetch.ParetoFrontier(group)
			for pi, pred := range preds {
				p := group[pi]
				mark := ""
				if frontier[pi] {
					mark = "*"
				}
				fmt.Fprintf(w, "%-10s %10.3f %10.3f %7.1f%% %8.3f %7.1f%% %10.4f %7s\n",
					pred, p.DemandAccess.Mean(), p.Access.Mean(),
					100*p.WastedFraction.Mean(), p.L1Error.Mean(),
					100*p.HitRatio.Mean(), p.SpecThroughput.Mean(), mark)
				gap[disc][ctl][pred] = p.DemandAccess.Mean()
			}
		}
	}

	f := gap[prefetch.SchedFIFO]
	fmt.Fprintf(w, "\nAdaptive-λ win at N=16 FIFO (static → aimd demand T):\n")
	for _, pred := range preds {
		fmt.Fprintf(w, "  %-10s %8.2f → %5.2f  (%.1fx)\n", pred,
			f[prefetch.ControllerStatic][pred], f[prefetch.ControllerAIMD][pred],
			f[prefetch.ControllerStatic][pred]/f[prefetch.ControllerAIMD][pred])
	}

	fmt.Fprintln(w, "\nThe oracle floods the shared server with confident speculation, so at")
	fmt.Fprintln(w, "static λ its perfect knowledge buys the worst demand latency on FIFO —")
	fmt.Fprintln(w, "cold-started learned models speculate less and queue less. Closed-loop")
	fmt.Fprintln(w, "λ control erases most of that difference: once congestion prices")
	fmt.Fprintln(w, "speculation, every predictor converges to near-certain prefetches only,")
	fmt.Fprintln(w, "and raw latency no longer separates oracle from learned — exactly the")
	fmt.Fprintln(w, "masking the Pareto marks expose: the learned rows buy their latency")
	fmt.Fprintln(w, "with less speculative throughput delivered (and the waste% and L1")
	fmt.Fprintln(w, "columns show the prediction quality behind it).")
	return nil
}
