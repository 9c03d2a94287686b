// Mobile: speculative prefetching on a low-bandwidth wireless link — the
// setting of the authors' earlier study (paper ref [15]). Two questions:
//
//  1. Contention semantics: the paper assumes a prefetch is never aborted
//     (a demand fetch waits). How much does that cost on a slow link
//     compared with aborting (preempt) or sharing bandwidth equally
//     (ref [15])? Answered with the event-driven simulator.
//
//  2. Battery/network budget: on metered links wasted prefetch bytes cost
//     real money and energy. The λ-priced solver (paper §6 future work)
//     trades access time against network usage.
//
//     go run ./examples/mobile
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prefetch"
)

const rounds = 8000

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the contention-semantics and metered-link experiments and writes their tables to w.
func run(w io.Writer) error {
	r := prefetch.NewRand(99)

	// A 9.6 kbit/s-era link: items take 2..45 seconds to pull.
	cfg := prefetch.PrefetchOnlyConfig{
		N: 8, RMin: 2, RMax: 45, VMin: 5, VMax: 60, Gen: prefetch.SkewyGen{},
	}
	workload, err := prefetch.RandomRounds(r, cfg, rounds)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== contention semantics on a slow link (event-driven) ==")
	fmt.Fprintf(w, "%-12s %12s %14s %14s\n", "mode", "mean T (s)", "net busy (s)", "aborted (s)")
	for _, mode := range []prefetch.NetMode{prefetch.ModeSequential, prefetch.ModePreempt, prefetch.ModeShared} {
		var totalT, totalBusy, totalAborted float64
		for _, rd := range workload {
			problem := rd.Problem()
			plan, _, err := prefetch.SolveSKP(problem)
			if err != nil {
				return err
			}
			transfers := make([]prefetch.Transfer, 0, plan.Len())
			for _, it := range plan.Items {
				transfers = append(transfers, prefetch.Transfer{ID: it.ID, Duration: it.Retrieval})
			}
			res, err := prefetch.SimulateNetRound(prefetch.NetRound{
				Prefetch:  transfers,
				Viewing:   rd.Viewing,
				Requested: rd.Requested,
				Retrieval: rd.Retrievals[rd.Requested],
				Mode:      mode,
			})
			if err != nil {
				return err
			}
			totalT += res.AccessTime
			totalBusy += res.NetworkBusy
			totalAborted += res.AbortedWork
		}
		n := float64(len(workload))
		fmt.Fprintf(w, "%-12s %12.3f %14.2f %14.2f\n", mode, totalT/n, totalBusy/n, totalAborted/n)
	}

	fmt.Fprintln(w, "\n== metered link: λ-priced prefetching (paper §6) ==")
	fmt.Fprintf(w, "%-8s %12s %16s %14s\n", "λ", "mean T (s)", "prefetch (s/rd)", "waste (s/rd)")
	var policies []prefetch.Policy
	lambdas := []float64{0, 0.05, 0.15, 0.4, 1, 3}
	for _, l := range lambdas {
		policies = append(policies, prefetch.CostAwarePolicy{Lambda: l})
	}
	results, err := prefetch.RunPrefetchOnly(workload, policies, prefetch.PrefetchOnlyOptions{})
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Fprintf(w, "%-8.2f %12.3f %16.2f %14.2f\n",
			lambdas[i], res.Overall.Mean(), res.Usage.Mean(), res.Waste.Mean())
	}
	fmt.Fprintln(w, "\nλ≈0.15 keeps most of the latency win at a fraction of the airtime —")
	fmt.Fprintln(w, "the knob the paper's conclusion asks for.")
	return nil
}
