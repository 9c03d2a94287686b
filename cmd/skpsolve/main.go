// Command skpsolve solves a single prefetch decision problem from JSON and
// prints the chosen plan, its expected access improvement, and the
// Theorem-2 upper bound.
//
// Input format (stdin, or a file via -f):
//
//	{
//	  "viewing": 6,
//	  "items": [
//	    {"id": 1, "prob": 0.6, "retrieval": 4},
//	    {"id": 2, "prob": 0.3, "retrieval": 5},
//	    {"id": 3, "prob": 0.1, "retrieval": 2}
//	  ]
//	}
//
// Example:
//
//	skpsolve -algo skp < problem.json
//	skpsolve -algo kp -json < problem.json
//	skpsolve -algo costaware -lambda 0.5 < problem.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"prefetch"
)

type jsonItem struct {
	ID        int     `json:"id"`
	Prob      float64 `json:"prob"`
	Retrieval float64 `json:"retrieval"`
}

type jsonProblem struct {
	Viewing   float64    `json:"viewing"`
	TotalProb float64    `json:"total_prob,omitempty"`
	Items     []jsonItem `json:"items"`
}

type jsonOutput struct {
	Algorithm  string  `json:"algorithm"`
	PlanIDs    []int   `json:"plan"`
	Gain       float64 `json:"gain"`
	Stretch    float64 `json:"stretch"`
	Waste      float64 `json:"waste"`
	UpperBound float64 `json:"upper_bound"`
	Nodes      int64   `json:"nodes,omitempty"`
	Prunes     int64   `json:"prunes,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skpsolve:", err)
		os.Exit(1)
	}
}

// run parses args, reads the problem from -f or stdin, and writes the
// plan to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("skpsolve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		algo    = fs.String("algo", "skp", "algorithm: skp | skp-paper | kp | greedy | exhaustive | costaware | stretchaware")
		lambda  = fs.Float64("lambda", 0, "network-usage price for -algo costaware")
		stretch = fs.Float64("stretchcost", 0, "stretch price for -algo stretchaware")
		file    = fs.String("f", "", "input file (default stdin)")
		asJSON  = fs.Bool("json", false, "emit JSON instead of text")
		explain = fs.Bool("explain", false, "print the per-item gain decomposition")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// Both prices are checked whichever -algo reads them, so a bad value
	// never passes silently under an algorithm that ignores it.
	if math.IsNaN(*lambda) || math.IsInf(*lambda, 0) || *lambda < 0 {
		return fmt.Errorf("-lambda must be finite and non-negative (got %v)", *lambda)
	}
	if math.IsNaN(*stretch) || *stretch < 0 {
		return fmt.Errorf("-stretchcost must be non-negative, +Inf included (got %v)", *stretch)
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var jp jsonProblem
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jp); err != nil {
		return fmt.Errorf("parsing problem: %w", err)
	}
	problem := prefetch.Problem{Viewing: jp.Viewing, TotalProb: jp.TotalProb}
	for _, it := range jp.Items {
		problem.Items = append(problem.Items, prefetch.Item{ID: it.ID, Prob: it.Prob, Retrieval: it.Retrieval})
	}

	var (
		plan  prefetch.Plan
		stats prefetch.SolverStats
		err   error
	)
	switch *algo {
	case "skp":
		plan, stats, err = prefetch.SolveSKP(problem)
	case "skp-paper":
		plan, stats, err = prefetch.SolveSKPPaper(problem)
	case "kp":
		plan, err = prefetch.SolveKP(problem)
	case "greedy":
		plan, err = prefetch.SolveGreedyPrefetch(problem)
	case "exhaustive":
		plan, _, err = prefetch.SolveSKPExhaustive(problem)
	case "costaware":
		plan, stats, err = prefetch.SolveSKPCostAware(problem, *lambda)
	case "stretchaware":
		plan, stats, err = prefetch.SolveSKPStretchAware(problem, *stretch)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}

	gain, err := prefetch.Gain(problem, plan)
	if err != nil {
		return err
	}
	bound, err := prefetch.UpperBound(problem)
	if err != nil {
		return err
	}
	out := jsonOutput{
		Algorithm:  *algo,
		PlanIDs:    plan.IDs(),
		Gain:       gain,
		Stretch:    plan.Stretch(problem.Viewing),
		Waste:      prefetch.Waste(plan),
		UpperBound: bound,
		Nodes:      stats.Nodes,
		Prunes:     stats.Prunes,
	}
	if out.PlanIDs == nil {
		out.PlanIDs = []int{}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "algorithm:    %s\n", out.Algorithm)
	fmt.Fprintf(stdout, "plan:         %v\n", out.PlanIDs)
	fmt.Fprintf(stdout, "gain (Eq.3):  %.6g\n", out.Gain)
	fmt.Fprintf(stdout, "stretch:      %.6g\n", out.Stretch)
	fmt.Fprintf(stdout, "waste:        %.6g\n", out.Waste)
	fmt.Fprintf(stdout, "upper bound:  %.6g (Eq.7)\n", out.UpperBound)
	if out.Nodes > 0 {
		fmt.Fprintf(stdout, "search:       %d nodes, %d prunes\n", out.Nodes, out.Prunes)
	}
	if *explain {
		ex, err := prefetch.Explain(problem, plan)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, ex.String())
	}
	return nil
}
