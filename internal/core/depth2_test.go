package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prefetch/internal/rng"
)

// randSuccessors builds weighted successor problems whose weights are the
// candidate probabilities of p (the Markov setting).
func randSuccessors(r *rng.Source, p Problem) []WeightedProblem {
	var out []WeightedProblem
	for _, it := range p.Items {
		out = append(out, WeightedProblem{
			Weight:  it.Prob,
			Problem: randProblem(r, r.IntRange(1, 6), 0.5, 30, 30),
		})
	}
	return out
}

// bruteDepth2 exhaustively maximises the two-step objective over the
// canonical search space.
func bruteDepth2(p Problem, succ []WeightedProblem) (float64, error) {
	sorted := CanonicalOrder(p.Items)
	n := len(sorted)
	best := math.Inf(-1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var items []Item
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, sorted[i])
			}
		}
		plan := Plan{Items: items}
		if plan.validAgainst(p) != nil {
			continue
		}
		v, err := Depth2Value(p, plan, succ)
		if err != nil {
			return 0, err
		}
		if v > best {
			best = v
		}
	}
	return best, nil
}

func TestSolveSKPDepth2MatchesBrute(t *testing.T) {
	r := rng.New(401)
	for iter := 0; iter < 60; iter++ {
		p := randProblem(r, r.IntRange(1, 7), 0.4, 30, 25)
		succ := randSuccessors(r, p)
		plan, _, err := SolveSKPDepth2(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Depth2Value(p, plan, succ)
		if err != nil {
			t.Fatalf("iter %d: returned plan invalid: %v", iter, err)
		}
		want, err := bruteDepth2(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: depth-2 B&B %v != brute %v (plan %v)", iter, got, want, plan)
		}
	}
}

// With no successors the depth-2 solver reduces exactly to plain SKP.
func TestSolveSKPDepth2ReducesToOneStep(t *testing.T) {
	r := rng.New(402)
	for iter := 0; iter < 100; iter++ {
		p := randProblem(r, r.IntRange(1, 9), 0.5, 30, 40)
		d2, _, err := SolveSKPDepth2(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := Gain(p, d2)
		one, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		g1, _ := Gain(p, one)
		if math.Abs(g1-g2) > 1e-9 {
			t.Fatalf("iter %d: depth-2 without successors %v != one-step %v", iter, g2, g1)
		}
	}
}

// The depth-2 optimum dominates both the myopic plan and the surrogate-
// priced plan under its own objective.
func TestDepth2DominatesOtherPlanners(t *testing.T) {
	r := rng.New(403)
	for iter := 0; iter < 50; iter++ {
		p := randProblem(r, r.IntRange(2, 7), 0.4, 30, 20)
		succ := randSuccessors(r, p)
		exact, _, err := SolveSKPDepth2(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		vExact, err := Depth2Value(p, exact, succ)
		if err != nil {
			t.Fatal(err)
		}
		myopic, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		vMyopic, err := Depth2Value(p, myopic, succ)
		if err != nil {
			t.Fatal(err)
		}
		surrogate, _, err := SolveSKPLookahead(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		vSurrogate, err := Depth2Value(p, surrogate, succ)
		if err != nil {
			t.Fatal(err)
		}
		if vMyopic > vExact+1e-9 || vSurrogate > vExact+1e-9 {
			t.Fatalf("iter %d: depth-2 optimum %v beaten (myopic %v, surrogate %v)",
				iter, vExact, vMyopic, vSurrogate)
		}
	}
}

// Stretch discourages itself: when the successors are capacity-hungry the
// depth-2 plan never stretches more than the myopic plan.
func TestDepth2StretchesNoMoreThanMyopic(t *testing.T) {
	r := rng.New(404)
	for iter := 0; iter < 60; iter++ {
		p := randProblem(r, r.IntRange(2, 7), 0.3, 30, 15)
		succ := randSuccessors(r, p)
		exact, _, err := SolveSKPDepth2(p, succ)
		if err != nil {
			t.Fatal(err)
		}
		myopic, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Stretch(p.Viewing) > myopic.Stretch(p.Viewing)+1e-9 {
			t.Fatalf("iter %d: depth-2 stretches %v > myopic %v", iter,
				exact.Stretch(p.Viewing), myopic.Stretch(p.Viewing))
		}
	}
}

// SolveSKPDepth2, Depth2Value and SolveSKPLookahead reject the same
// successors: a negative, NaN or infinite weight, or an invalid problem
// even at zero weight.
func TestDepth2Validation(t *testing.T) {
	p := Problem{Items: []Item{{ID: 0, Prob: 1, Retrieval: 2}}, Viewing: 5}
	badProblem := Problem{Items: []Item{{ID: 0, Prob: 2, Retrieval: 1}}, Viewing: 1}
	bad := map[string][]WeightedProblem{
		"negative weight":     {{Weight: -1, Problem: p}},
		"NaN weight":          {{Weight: math.NaN(), Problem: p}},
		"infinite weight":     {{Weight: math.Inf(1), Problem: p}},
		"invalid problem":     {{Weight: 1, Problem: badProblem}},
		"invalid zero-weight": {{Weight: 0.5, Problem: p}, {Weight: 0, Problem: badProblem}},
	}
	for name, succ := range bad {
		if _, _, err := SolveSKPDepth2(p, succ); !errors.Is(err, ErrBadProblem) {
			t.Errorf("SolveSKPDepth2 %s: err %v", name, err)
		}
		if _, err := Depth2Value(p, Plan{}, succ); !errors.Is(err, ErrBadProblem) {
			t.Errorf("Depth2Value %s: err %v", name, err)
		}
		if _, _, err := SolveSKPLookahead(p, succ); !errors.Is(err, ErrBadProblem) {
			t.Errorf("SolveSKPLookahead %s: err %v", name, err)
		}
	}
}

func TestDepth2Memoisation(t *testing.T) {
	// Integral retrieval times produce few distinct stretch values; the
	// continuation solves must be bounded by (distinct st values) ×
	// (successors), not by the node count.
	r := rng.New(405)
	p := randProblem(r, 10, 0.4, 30, 10)
	succ := randSuccessors(r, p)
	_, stats, err := SolveSKPDepth2(p, succ)
	if err != nil {
		t.Fatal(err)
	}
	maxSolves := int64(40*len(succ) + len(succ)) // ≤ distinct st values × successors
	if stats.ContinuationSolves > maxSolves {
		t.Fatalf("continuation solves %d exceed memoisation cap %d", stats.ContinuationSolves, maxSolves)
	}
}

// depth2GoldenPath pins SolveSKPDepth2 on the depth2GoldenCase instances,
// one line each: the plan IDs, the bits of the plan's Depth2Value, Nodes,
// Prunes and ContinuationSolves.
const depth2GoldenPath = "testdata/depth2_golden.txt"

// depth2GoldenCase draws instance i: up to 8 candidates (none on every
// 25th), a partial universe with TotalProb = 1 on every third, zero-weight
// and candidate-free successors on every fifth, and partial-universe
// successors on every seventh.
func depth2GoldenCase(r *rng.Source, i int) (Problem, []WeightedProblem) {
	n := r.IntRange(1, 8)
	p := randProblem(r, n, 0.5, 30, 30)
	if i%25 == 2 {
		p.Items = nil
	} else if i%3 == 1 && n > 1 {
		// The dropped item's mass stays in TotalProb.
		p.Items = p.Items[:n-1]
		p.TotalProb = 1
	}
	succ := randSuccessors(r, p)
	if i%5 == 2 {
		succ = append(succ,
			WeightedProblem{Weight: 0, Problem: randProblem(r, 3, 0.5, 30, 30)},
			WeightedProblem{Weight: 0.2, Problem: Problem{Viewing: float64(r.IntRange(0, 30))}})
	}
	if i%7 == 3 {
		for k := range succ {
			q := &succ[k].Problem
			if m := len(q.Items); m > 1 {
				q.Items = q.Items[:m-1]
				q.TotalProb = 1
			}
		}
	}
	return p, succ
}

// depth2GoldenLine formats one instance's golden line.
func depth2GoldenLine(p Problem, succ []WeightedProblem) (string, error) {
	plan, stats, err := SolveSKPDepth2(p, succ)
	if err != nil {
		return "", err
	}
	v, err := Depth2Value(p, plan, succ)
	if err != nil {
		return "", err
	}
	ids := "-"
	if !plan.Empty() {
		ids = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(plan.IDs())), ","), "[]")
	}
	return fmt.Sprintf("%s %016x %d %d %d", ids, math.Float64bits(v),
		stats.Nodes, stats.Prunes, stats.ContinuationSolves), nil
}

// The depth-2 search is pinned instance by instance: plans, values, Nodes
// and Prunes exactly, and ContinuationSolves may only fall (memoisation
// and pruning may skip a continuation solve, never add one). Without
// candidates the Solver returns before visiting its root, so Nodes reads
// 0 where the golden, recorded before depth-2 ran on the Solver, has 1.
func TestSolveSKPDepth2Golden(t *testing.T) {
	data, err := os.ReadFile(depth2GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	r := rng.New(406)
	for i := range want {
		p, succ := depth2GoldenCase(r, i)
		got, err := depth2GoldenLine(p, succ)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		g, w := strings.Fields(got), strings.Fields(want[i])
		if len(p.Items) == 0 && len(w) == 5 && w[2] == "1" {
			w[2] = "0"
		}
		if len(w) != 5 || !slices.Equal(g[:4], w[:4]) {
			t.Fatalf("instance %d: got %q, want %q", i, got, strings.Join(w, " "))
		}
		gs, _ := strconv.Atoi(g[4])
		ws, err := strconv.Atoi(w[4])
		if err != nil || gs > ws {
			t.Fatalf("instance %d: %d continuation solves, golden %q", i, gs, w[4])
		}
	}
}
