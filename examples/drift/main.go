// Drift: every sweep so far assumed a stationary workload — each
// surfer's hot set is fixed for the whole run, so a predictor that
// hoards evidence forever (depgraph, ppm) looks strictly better than one
// that forgets (decay). This demo makes the workload non-stationary
// (MultiClientConfig.DriftEvery re-draws each surfer's preference vector
// on a fixed cadence, deterministically, from per-client drift streams)
// and shows the stationary predictor ranking inverting under drift: the
// decayed-count model pays for its forgetting while the world stands
// still and collects on it as soon as the world moves, exactly the
// GrASP-style motivation for drift-tracking prefetchers.
//
//	go run ./examples/drift
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
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Clients = 12
	cfg.Rounds = 600
	cfg.Seed = 2026
	cfg.Site.Pages = 40
	cfg.Site.MinLinks = 3
	cfg.Site.MaxLinks = 6
	cfg.Predict = prefetch.PredictConfig{
		Kind:      prefetch.PredictorOracle,
		HalfLife:  150,
		MixWeight: 0.25,
	}
	const driftEvery = 100
	const reps = 2

	preds := []prefetch.PredictorKind{
		prefetch.PredictorOracle,
		prefetch.PredictorDepGraph,
		prefetch.PredictorPPM,
		prefetch.PredictorDecay,
		prefetch.PredictorMixture,
		prefetch.PredictorPPMEscape,
	}

	fmt.Fprintf(w, "stationary vs drifting workloads, %d clients, %d rounds/client, %d reps\n",
		cfg.Clients, cfg.Rounds, reps)
	fmt.Fprintf(w, "(drift: each surfer's hot set re-drawn every %d rounds; decay half-life %g, mix weight %g)\n",
		driftEvery, cfg.Predict.HalfLife, cfg.Predict.MixWeight)

	l1 := map[bool]map[prefetch.PredictorKind]float64{}
	demand := map[bool]map[prefetch.PredictorKind]float64{}
	for _, drifting := range []bool{false, true} {
		c := cfg
		c.DriftEvery = 0
		label := "stationary"
		if drifting {
			c.DriftEvery = driftEvery
			label = fmt.Sprintf("drift every %d rounds", driftEvery)
		}
		points, err := prefetch.SweepMultiClientGrid(c, reps, 0, true, prefetch.MultiClientPredictorAxis(preds))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s --\n", label)
		fmt.Fprintf(w, "%-12s %10s %10s %8s %8s %8s %10s\n",
			"predictor", "demand T", "mean T", "L1 err", "waste%", "hit%", "improve%")
		l1[drifting] = map[prefetch.PredictorKind]float64{}
		demand[drifting] = map[prefetch.PredictorKind]float64{}
		for i, p := range points {
			fmt.Fprintf(w, "%-12s %10.3f %10.3f %8.3f %7.1f%% %7.1f%% %9.1f%%\n",
				preds[i], p.DemandAccess.Mean(), p.Access.Mean(), p.L1Error.Mean(),
				100*p.WastedFraction.Mean(), 100*p.HitRatio.Mean(), 100*p.Improvement.Mean())
			l1[drifting][preds[i]] = p.L1Error.Mean()
			demand[drifting][preds[i]] = p.DemandAccess.Mean()
		}
	}

	// A ranking inversion: predictor a beats b while the workload stands
	// still, b beats a once it drifts.
	fmt.Fprintln(w, "\npredictor-ranking inversions (stationary → drifting):")
	inversions := 0
	for _, metric := range []struct {
		name string
		by   map[bool]map[prefetch.PredictorKind]float64
	}{{"L1 error", l1}, {"demand T", demand}} {
		for i, a := range preds {
			for _, b := range preds[i+1:] {
				statAB := metric.by[false][a] < metric.by[false][b]
				driftAB := metric.by[true][a] < metric.by[true][b]
				if statAB == driftAB {
					continue
				}
				win, lose := a, b
				if !statAB {
					win, lose = b, a
				}
				inversions++
				fmt.Fprintf(w, "  %-9s %-10s beats %-10s stationary (%.3f vs %.3f) but loses drifting (%.3f vs %.3f)\n",
					metric.name+":", win, lose,
					metric.by[false][win], metric.by[false][lose],
					metric.by[true][win], metric.by[true][lose])
			}
		}
	}
	if inversions == 0 {
		return errors.New("no ranking inversion found — drift too weak for this configuration")
	}

	fmt.Fprintln(w, "\nWhile the hot set stands still, hoarded evidence wins: depgraph's")
	fmt.Fprintln(w, "counts only sharpen, and decay keeps throwing away information it")
	fmt.Fprintln(w, "will see again. As soon as the hot set moves, the hoard turns into an")
	fmt.Fprintln(w, "anchor — stale transitions keep predicting the dead phase — while the")
	fmt.Fprintln(w, "decayed model forgets its way back to the truth within a half-life or")
	fmt.Fprintln(w, "two. The mixture and escape-PPM models sit between: popularity and")
	fmt.Fprintln(w, "shorter contexts partially track the shift, full re-convergence needs")
	fmt.Fprintln(w, "forgetting.")
	return nil
}
