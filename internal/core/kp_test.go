package core

import (
	"math"
	"slices"
	"testing"

	"prefetch/internal/rng"
)

// solveDP is the exact KP oracle for integer weights and capacity: a
// dynamic program over capacities, O(n·capacity) time, with real-valued
// profits. It returns one optimal selection (in input order) and the
// optimal value.
func solveDP(profits []float64, weights []int, capacity int) ([]bool, float64) {
	n := len(profits)
	// value[c] after considering a prefix of items; take[i][c] records the
	// decision so the selection can be reconstructed exactly.
	value := make([]float64, capacity+1)
	take := make([][]bool, n)
	for i := 0; i < n; i++ {
		take[i] = make([]bool, capacity+1)
		w := weights[i]
		for c := capacity; c >= w; c-- {
			if cand := value[c-w] + profits[i]; cand > value[c] {
				value[c] = cand
				take[i][c] = true
			}
		}
	}
	sel := make([]bool, n)
	c := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i][c] {
			sel[i] = true
			c -= weights[i]
		}
	}
	return sel, value[capacity]
}

// kpOptimum returns the DP optimum of a problem whose retrieval and
// viewing times are integers.
func kpOptimum(p Problem) float64 {
	profits := make([]float64, len(p.Items))
	weights := make([]int, len(p.Items))
	for i, it := range p.Items {
		profits[i] = it.Prob * it.Retrieval
		weights[i] = int(it.Retrieval)
	}
	_, v := solveDP(profits, weights, int(p.Viewing))
	return v
}

// kpValue is the in-capacity value Σ P_i·r_i of a plan.
func kpValue(plan Plan) float64 {
	var v float64
	for _, it := range plan.Items {
		v += it.Prob * it.Retrieval
	}
	return v
}

// checkKPAgainstDP fails unless SolveKP's plan completes within the
// viewing time and reaches the DP optimum within 1e-9.
func checkKPAgainstDP(t *testing.T, p Problem) {
	t.Helper()
	plan, err := SolveKP(p)
	if err != nil {
		t.Fatalf("SolveKP(%+v): %v", p, err)
	}
	if st := plan.Stretch(p.Viewing); st > 0 {
		t.Fatalf("KP plan %v stretches by %v (problem %+v)", plan.IDs(), st, p)
	}
	if got, want := kpValue(plan), kpOptimum(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("KP value %v != DP optimum %v (plan %v, problem %+v)", got, want, plan.IDs(), p)
	}
}

// randKPProblem draws a problem with integer retrieval and viewing times.
// Every other problem is tie-heavy: its probabilities sit on three equal
// levels, so many plans share the optimal value.
func randKPProblem(r *rng.Source, tieHeavy bool) Problem {
	n := r.IntRange(0, 12)
	items := make([]Item, n)
	probs := make([]float64, n)
	if tieHeavy {
		for i := range probs {
			probs[i] = float64(r.IntRange(1, 3)) / float64(3*n)
		}
	} else if n > 0 {
		r.Dirichlet(0.7, probs)
	}
	for i := range items {
		items[i] = Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 20))}
	}
	return Problem{Items: items, Viewing: float64(r.IntRange(0, 60))}
}

func TestSolveDPKnownInstances(t *testing.T) {
	sel, v := solveDP([]float64{60, 100, 120}, []int{10, 20, 30}, 50)
	if v != 220 {
		t.Fatalf("DP value = %v, want 220", v)
	}
	if sel[0] || !sel[1] || !sel[2] {
		t.Fatalf("DP selection = %v, want [false true true]", sel)
	}
}

// TestSolveKPKnownInstances runs textbook 0/1 knapsacks through SolveKP.
// Profit p over weight w becomes an item with P = p/(w·scale), so the
// probabilities stay below one and the optimum scales by 1/scale.
func TestSolveKPKnownInstances(t *testing.T) {
	cases := []struct {
		name     string
		profits  []float64
		weights  []float64
		capacity float64
		want     float64
	}{
		{"empty", nil, nil, 10, 0},
		{"single fits", []float64{5}, []float64{3}, 10, 5},
		{"single too big", []float64{5}, []float64{30}, 10, 0},
		{"classic", []float64{60, 100, 120}, []float64{10, 20, 30}, 50, 220},
		{"all fit", []float64{1, 2, 3}, []float64{1, 1, 1}, 10, 6},
		{"zero capacity", []float64{1, 2}, []float64{1, 1}, 0, 0},
		{"greedy trap", []float64{10, 9, 9}, []float64{5, 4, 4}, 8, 18},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var scale float64
			for i := range c.profits {
				scale += c.profits[i] / c.weights[i]
			}
			p := Problem{Viewing: c.capacity}
			for i := range c.profits {
				p.Items = append(p.Items, Item{ID: i, Prob: c.profits[i] / (c.weights[i] * scale), Retrieval: c.weights[i]})
			}
			plan, err := SolveKP(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := kpValue(plan) * scale; math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("value = %v, want %v (plan %v)", got, c.want, plan.IDs())
			}
			if plan.Stretch(p.Viewing) > 0 {
				t.Fatalf("plan %v exceeds capacity %v", plan.IDs(), c.capacity)
			}
		})
	}
}

// TestSolveKPMatchesDPRandom checks SolveKP against the DP oracle on random
// integer problems, half of them tie-heavy.
func TestSolveKPMatchesDPRandom(t *testing.T) {
	r := rng.New(99)
	for iter := 0; iter < 3000; iter++ {
		checkKPAgainstDP(t, randKPProblem(r, iter%2 == 0))
	}
}

// TestSolveKPFeasible checks on random real-valued problems that the KP
// plan completes within the viewing time, that its Eq. 3 gain is its
// in-capacity value, and that the value stays under the Eq. 7 bound.
func TestSolveKPFeasible(t *testing.T) {
	r := rng.New(7)
	for iter := 0; iter < 200; iter++ {
		n := r.IntRange(1, 14)
		probs := make([]float64, n)
		r.Dirichlet(0.7, probs)
		p := Problem{Items: make([]Item, n), Viewing: r.Float64Range(0, 100)}
		for i := range p.Items {
			p.Items[i] = Item{ID: i, Prob: probs[i], Retrieval: r.Float64Range(0.1, 30)}
		}
		plan, err := SolveKP(p)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if total := plan.TotalRetrieval(); total > p.Viewing+1e-9 {
			t.Fatalf("iter %d: plan %v retrieves %v > viewing %v", iter, plan.IDs(), total, p.Viewing)
		}
		g, err := Gain(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		if v := kpValue(plan); math.Abs(g-v) > 1e-9 {
			t.Fatalf("iter %d: gain %v != in-capacity value %v", iter, g, v)
		}
		u, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		if g > u+1e-9 {
			t.Fatalf("iter %d: KP value %v exceeds Eq. 7 bound %v", iter, g, u)
		}
	}
}

// The Dantzig bound fills fractionally: capacity 15 takes all of a
// (p=10, w=10) item and half of a (p=8, w=10) item, 14 in knapsack units.
// With P = p/(w·2) the bound is 14/2.
func TestSolveKPDantzigBoundFractional(t *testing.T) {
	p := Problem{Items: []Item{
		{ID: 0, Prob: 0.5, Retrieval: 10},
		{ID: 1, Prob: 0.4, Retrieval: 10},
	}, Viewing: 15}
	u, err := UpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-7) > 1e-9 {
		t.Fatalf("bound = %v, want 7", u)
	}
	plan, err := SolveKP(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.IDs(); !slices.Equal(got, []int{0}) {
		t.Fatalf("KP plan = %v, want [0]", got)
	}
}

// Equal densities leave the greedy to fill in canonical order; what it
// takes must still fit the viewing time.
func TestSolveGreedyPrefetchFeasible(t *testing.T) {
	p := Problem{Items: []Item{
		{ID: 0, Prob: 1.0 / 3, Retrieval: 3},
		{ID: 1, Prob: 1.0 / 3, Retrieval: 2},
		{ID: 2, Prob: 1.0 / 3, Retrieval: 1},
	}, Viewing: 4}
	plan, err := SolveGreedyPrefetch(p)
	if err != nil {
		t.Fatal(err)
	}
	if total := plan.TotalRetrieval(); total > p.Viewing {
		t.Fatalf("greedy plan %v retrieves %v > viewing %v", plan.IDs(), total, p.Viewing)
	}
	if plan.Empty() {
		t.Fatal("greedy plan is empty though every item fits alone")
	}
}

// Among equally optimal plans KP keeps the first in the paper's condition
// (5) order. P·r/r is not P in floating point (0.1·3/3 rounds above 0.1),
// so ordering candidates by that density instead would prefer {r=3}.
func TestSolveKPTieFollowsCanonicalOrder(t *testing.T) {
	p := Problem{Items: []Item{
		{ID: 3, Prob: 0.1, Retrieval: 3},
		{ID: 2, Prob: 0.1, Retrieval: 2},
		{ID: 1, Prob: 0.1, Retrieval: 1},
	}, Viewing: 3}
	plan, err := SolveKP(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.IDs(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("KP plan = %v, want [1 2]", got)
	}
}

// KP prices the stretch out of the SKP search; the Dantzig bound still
// cuts it.
func TestSolveKPPrunes(t *testing.T) {
	r := rng.New(5)
	p := randProblem(r, 18, 1, 30, 60)
	_, stats, err := SolveSKPStretchAware(p, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prunes == 0 {
		t.Fatal("expected at least one prune on an 18-item instance")
	}
	if stats.Nodes >= 1<<18 {
		t.Fatalf("visited %d nodes, bound not cutting search", stats.Nodes)
	}
}

func TestSolveKPRejectsBadProblems(t *testing.T) {
	bad := []Problem{
		{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: 0}}, Viewing: 5},
		{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: -2}}, Viewing: 5},
		{Items: []Item{{ID: 1, Prob: -0.1, Retrieval: 2}}, Viewing: 5},
		{Items: []Item{{ID: 1, Prob: math.NaN(), Retrieval: 1}}, Viewing: 1},
		{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: 1}}, Viewing: -1},
		{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: 1}}, Viewing: math.NaN()},
	}
	for i, p := range bad {
		if _, err := SolveKP(p); err == nil {
			t.Errorf("case %d: bad problem %+v accepted", i, p)
		}
	}
}
