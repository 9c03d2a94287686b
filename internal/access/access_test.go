package access

import (
	"math"
	"testing"

	"prefetch/internal/rng"
)

func checkSimplex(t *testing.T, probs []float64) {
	t.Helper()
	var sum float64
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("prob[%d] = %v", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestGeneratorsProduceSimplex(t *testing.T) {
	r := rng.New(61)
	gens := []ProbGen{FlatGen{}, SkewyGen{}, SkewyGen{Alpha: 3}, ZipfGen{}, ZipfGen{S: 2}, GeometricGen{}, GeometricGen{Theta: 0.9}}
	for _, g := range gens {
		for _, n := range []int{1, 2, 10, 25} {
			out := make([]float64, n)
			g.Generate(r, out)
			checkSimplex(t, out)
		}
		if g.Name() == "" {
			t.Fatal("generator without a name")
		}
	}
}

func TestSkewyIsSkewerThanFlat(t *testing.T) {
	r := rng.New(62)
	const n, reps = 10, 3000
	meanMax := func(g ProbGen) float64 {
		var total float64
		out := make([]float64, n)
		for i := 0; i < reps; i++ {
			g.Generate(r, out)
			total += maxOf(out)
		}
		return total / reps
	}
	flat := meanMax(FlatGen{})
	skewy := meanMax(SkewyGen{})
	if skewy < flat+0.2 {
		t.Fatalf("skewy mean max %v not clearly above flat %v", skewy, flat)
	}
	// The skewy method should make the next request "highly predictable":
	// dominant item above 60% on average at the default alpha.
	if skewy < 0.6 {
		t.Fatalf("skewy mean max %v below 0.6; not 'highly predictable'", skewy)
	}
	// Flat over 10 items should have no dominant item on average.
	if flat > 0.45 {
		t.Fatalf("flat mean max %v too skewed", flat)
	}
}

func TestZipfAndGeometricSkewKnobs(t *testing.T) {
	r := rng.New(63)
	out := make([]float64, 20)
	meanMax := func(g ProbGen) float64 {
		var total float64
		const reps = 500
		for i := 0; i < reps; i++ {
			g.Generate(r, out)
			total += maxOf(out)
		}
		return total / reps
	}
	if meanMax(ZipfGen{S: 2}) <= meanMax(ZipfGen{S: 0.5}) {
		t.Fatal("larger Zipf exponent should concentrate mass")
	}
	if meanMax(GeometricGen{Theta: 0.3}) <= meanMax(GeometricGen{Theta: 0.9}) {
		t.Fatal("smaller geometric theta should concentrate mass")
	}
}

func TestGenByName(t *testing.T) {
	for _, name := range []string{"flat", "skewy", "zipf", "geometric"} {
		g, err := GenByName(name)
		if err != nil {
			t.Fatalf("GenByName(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("GenByName(%q).Name() = %q", name, g.Name())
		}
	}
	if _, err := GenByName("nope"); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestBuildMarkovFig7Shape(t *testing.T) {
	r := rng.New(64)
	m, err := BuildMarkov(r, Fig7MarkovConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.States() != 100 {
		t.Fatalf("states = %d", m.States())
	}
	for s := 0; s < m.States(); s++ {
		succ, prob := m.Successors(s)
		if len(succ) < 10 || len(succ) > 20 {
			t.Fatalf("state %d out-degree %d outside [10,20]", s, len(succ))
		}
		if len(succ) != len(prob) {
			t.Fatalf("state %d successor/probability length mismatch", s)
		}
		var sum float64
		seen := map[int]bool{}
		for i, target := range succ {
			if target < 0 || target >= m.States() {
				t.Fatalf("state %d successor %d out of range", s, target)
			}
			if seen[target] {
				t.Fatalf("state %d repeats successor %d", s, target)
			}
			seen[target] = true
			if prob[i] <= 0 {
				t.Fatalf("state %d transition prob %v", s, prob[i])
			}
			sum += prob[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("state %d transition probs sum to %v", s, sum)
		}
		if v := m.Viewing(s); v < 1 || v > 100 {
			t.Fatalf("state %d viewing time %v outside [1,100]", s, v)
		}
	}
}

func TestMarkovNextFollowsTransitions(t *testing.T) {
	r := rng.New(65)
	m, err := BuildMarkov(r, MarkovConfig{States: 10, MinOut: 2, MaxOut: 4, MinViewing: 1, MaxViewing: 10})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1000; step++ {
		s := m.State()
		succ, _ := m.Successors(s)
		next := m.Next()
		ok := false
		for _, target := range succ {
			if target == next {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("step %d: transition %d -> %d not in successor list %v", step, s, next, succ)
		}
		if next != m.State() {
			t.Fatal("Next() return value disagrees with State()")
		}
	}
	m.Reset()
	if m.State() != 0 {
		t.Fatal("Reset did not return to state 0")
	}
}

func TestMarkovTransitionFrequencies(t *testing.T) {
	// Empirical transition frequencies out of a fixed state must match the
	// declared probabilities.
	r := rng.New(66)
	m, err := BuildMarkov(r, MarkovConfig{States: 5, MinOut: 3, MaxOut: 3, MinViewing: 1, MaxViewing: 1})
	if err != nil {
		t.Fatal(err)
	}
	succ, prob := m.Successors(0)
	counts := map[int]int{}
	const reps = 200000
	for i := 0; i < reps; i++ {
		m.Reset()
		counts[m.Next()]++
	}
	for i, target := range succ {
		got := float64(counts[target]) / reps
		if math.Abs(got-prob[i]) > 0.01 {
			t.Fatalf("transition 0->%d frequency %v, want %v", target, got, prob[i])
		}
	}
}

func TestBuildMarkovValidation(t *testing.T) {
	r := rng.New(67)
	bad := []MarkovConfig{
		{States: 0, MinOut: 1, MaxOut: 1},
		{States: 5, MinOut: 0, MaxOut: 3},
		{States: 5, MinOut: 4, MaxOut: 3},
		{States: 5, MinOut: 2, MaxOut: 9},
		{States: 5, MinOut: 2, MaxOut: 3, MinViewing: -1},
		{States: 5, MinOut: 2, MaxOut: 3, MinViewing: 5, MaxViewing: 1},
	}
	for i, cfg := range bad {
		if _, err := BuildMarkov(r, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func BenchmarkMarkovNext(b *testing.B) {
	r := rng.New(69)
	m, err := BuildMarkov(r, Fig7MarkovConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Next()
	}
}

func BenchmarkSkewyGenerate10(b *testing.B) {
	r := rng.New(70)
	out := make([]float64, 10)
	g := SkewyGen{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(r, out)
	}
}
