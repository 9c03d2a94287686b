// Quickstart: pose one prefetch decision, solve it with the paper's SKP
// algorithm and the classic-knapsack baseline, and inspect why the chosen
// plan wins.
//
//	go run ./examples/quickstart
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

// run solves and explains the one decision and writes the report to w.
func run(w io.Writer) error {
	// A user is viewing a page; during the expected 6 seconds of viewing
	// time the client can prefetch. Three candidate next accesses, with
	// their probabilities and retrieval times:
	problem := prefetch.Problem{
		Items: []prefetch.Item{
			{ID: 1, Prob: 0.6, Retrieval: 4}, // likely, medium fetch
			{ID: 2, Prob: 0.3, Retrieval: 5}, // possible, slow fetch
			{ID: 3, Prob: 0.1, Retrieval: 2}, // unlikely, fast fetch
		},
		Viewing: 6,
	}

	// The stretch-knapsack optimum: it deliberately overruns the viewing
	// time (prefetching items 1 and 2 takes 9 > 6) because the expected
	// saving outweighs the stretch penalty.
	skpPlan, stats, err := prefetch.SolveSKP(problem)
	if err != nil {
		return err
	}
	skpGain, err := prefetch.Gain(problem, skpPlan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SKP plan %v: expected improvement %.3g (searched %d nodes)\n",
		skpPlan.IDs(), skpGain, stats.Nodes)

	// The conservative baseline never overruns: it fits 4+2 <= 6.
	kpPlan, err := prefetch.SolveKP(problem)
	if err != nil {
		return err
	}
	kpGain, err := prefetch.Gain(problem, kpPlan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "KP  plan %v: expected improvement %.3g\n", kpPlan.IDs(), kpGain)

	// Break the SKP plan down: schedule, per-item contribution, penalty.
	ex, err := prefetch.Explain(problem, skpPlan)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, ex.String())

	// What actually happens for each possible request (Fig. 2 of the
	// paper): items fully prefetched are free, the stretching item costs
	// the overrun, everything else waits out the whole prefetch.
	fmt.Fprintln(w)
	retrieval := func(id int) float64 {
		it, _ := problem.ItemByID(id)
		return it.Retrieval
	}
	for _, it := range problem.Items {
		t := prefetch.AccessTime(skpPlan, problem.Viewing, it.ID, retrieval)
		fmt.Fprintf(w, "if the user requests %d (P=%.1f): access time %.3g\n", it.ID, it.Prob, t)
	}
	return nil
}
