package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"prefetch/internal/rng"
)

// A reused Solver must give the plans, node/prune counts and errors of a
// fresh one (SolveSKPOpts) across modes, stretch costs, λ values and
// repeated solves over shared scratch, and the totals stay pinned to the
// search as it stood before the two solvers merged: Σ Nodes, Σ Prunes and
// an FNV-64a over every plan's IDs.
func TestSolverMatchesSolveSKPOpts(t *testing.T) {
	r := rng.New(301)
	s := NewSolver()
	optsFor := func(iter int) Options {
		opts := Options{}
		if iter%2 == 1 {
			opts.Mode = DeltaPaperTail
		}
		if iter%3 == 1 {
			opts.StretchCost = float64(r.IntRange(0, 3))
		}
		if iter%5 == 2 {
			opts.NetworkLambda = float64(r.IntRange(1, 6)) / 10
		}
		if iter%7 == 3 {
			opts.DisableBound = true
		}
		return opts
	}
	var nodes, prunes int64
	h := fnv.New64a()
	for iter := 0; iter < 400; iter++ {
		p := randProblem(r, r.IntRange(1, 12), 0.5, 30, 40)
		if iter%4 == 2 {
			p.TotalProb = 1
		}
		if iter%11 == 6 {
			p.Items = nil // the n == 0 early return
		}
		opts := optsFor(iter)
		wantPlan, wantStats, wantErr := SolveSKPOpts(p, opts)
		gotPlan, gotStats, gotErr := s.Solve(p, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("iter %d: error mismatch: %v vs %v", iter, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if gotStats != wantStats {
			t.Fatalf("iter %d: stats %+v, want %+v", iter, gotStats, wantStats)
		}
		if !slices.Equal(gotPlan.Items, wantPlan.Items) {
			t.Fatalf("iter %d: plan %v, want %v", iter, gotPlan, wantPlan)
		}
		nodes += wantStats.Nodes
		prunes += wantStats.Prunes
		fmt.Fprintf(h, "%v|", wantPlan.IDs())
	}
	if nodes != 7108 || prunes != 518 {
		t.Errorf("Σ nodes = %d, Σ prunes = %d, want 7108 and 518", nodes, prunes)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != "20a1e4c4c7264a1f" {
		t.Errorf("plan fingerprint %s, want 20a1e4c4c7264a1f", got)
	}
}

// Every bad problem is rejected with the same message through
// Problem.Validate, the SolveSKPOpts entry point and a reused Solver. The
// last problem rows only break the Options (negative, NaN or an infinite
// λ; +Inf StretchCost is SolveKP); Validate accepts them.
func TestSolverValidationMatches(t *testing.T) {
	many := make([]Item, smallItems+6) // past the scan: the seen-set path
	for i := range many {
		many[i] = Item{ID: i, Prob: 0.01, Retrieval: 1}
	}
	many[len(many)-1].ID = 3
	bad := []struct {
		p    Problem
		opts Options
		want string
	}{
		{Problem{Viewing: -1}, Options{}, "core: bad problem: viewing time -1"},
		{Problem{Viewing: math.NaN()}, Options{}, "core: bad problem: viewing time NaN"},
		{Problem{TotalProb: -0.5}, Options{}, "core: bad problem: total probability -0.5"},
		{Problem{Items: []Item{{ID: 1, Prob: -0.1, Retrieval: 1}}, Viewing: 1}, Options{},
			"core: bad problem: item 0 (id 1) probability -0.1"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: 0}}, Viewing: 1}, Options{},
			"core: bad problem: item 0 (id 1) retrieval time 0 (must be > 0)"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.3, Retrieval: 1}, {ID: 1, Prob: 0.2, Retrieval: 2}}, Viewing: 1}, Options{},
			"core: bad problem: duplicate item id 1"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.9, Retrieval: 1}, {ID: 2, Prob: 0.9, Retrieval: 1}}, Viewing: 1, TotalProb: 1}, Options{},
			"core: bad problem: Σ P_i = 1.8 exceeds TotalProb = 1"},
		{Problem{Items: many, Viewing: 5}, Options{}, "core: bad problem: duplicate item id 3"},
		{Problem{Viewing: 1}, Options{StretchCost: -1}, "core: bad problem: negative StretchCost or NetworkLambda"},
		{Problem{Viewing: 1}, Options{NetworkLambda: -0.1}, "core: bad problem: negative StretchCost or NetworkLambda"},
		{Problem{Viewing: 1}, Options{StretchCost: math.NaN()},
			"core: bad problem: NaN StretchCost or NetworkLambda, or infinite NetworkLambda"},
		{Problem{Viewing: 1}, Options{NetworkLambda: math.NaN()},
			"core: bad problem: NaN StretchCost or NetworkLambda, or infinite NetworkLambda"},
		{Problem{Viewing: 1}, Options{NetworkLambda: math.Inf(1)},
			"core: bad problem: NaN StretchCost or NetworkLambda, or infinite NetworkLambda"},
	}
	s := NewSolver()
	for i, c := range bad {
		validateErr := c.p.Validate()
		if c.opts == (Options{}) {
			if validateErr == nil || validateErr.Error() != c.want {
				t.Errorf("case %d: Validate error %q, want %q", i, validateErr, c.want)
			}
		} else if validateErr != nil {
			t.Errorf("case %d: Validate rejected a valid problem: %v", i, validateErr)
		}
		if _, _, err := SolveSKPOpts(c.p, c.opts); err == nil || err.Error() != c.want {
			t.Errorf("case %d: SolveSKPOpts error %q, want %q", i, err, c.want)
		}
		if _, _, err := s.Solve(c.p, c.opts); err == nil || err.Error() != c.want {
			t.Errorf("case %d: reused Solver error %q, want %q", i, err, c.want)
		}
	}
}

// Repeated solves over the shared scratch must not alias: a plan read
// before the next Solve is the same value a fresh solver would produce,
// and the canonical sort is exactly CanonicalOrder's permutation.
func TestSolverCanonicalSort(t *testing.T) {
	r := rng.New(302)
	s := NewSolver()
	for iter := 0; iter < 200; iter++ {
		p := randProblem(r, r.IntRange(1, 20), 0.4, 10, 5)
		// Inject probability ties so the retrieval/ID tie-breaks exercise.
		for i := range p.Items {
			if i%3 == 0 {
				p.Items[i].Prob = 0.25
			}
		}
		if _, _, err := s.Solve(p, Options{}); err != nil {
			t.Fatal(err)
		}
		want := CanonicalOrder(p.Items)
		if !reflect.DeepEqual(s.sorted, want) {
			t.Fatalf("iter %d: canonical sort %v, want %v", iter, s.sorted, want)
		}
	}
}
