package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from identical seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not merely replay the parent's.
	matches := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split stream tracks parent: %d/100 matches", matches)
	}
}

func TestDeriveDeterminism(t *testing.T) {
	a := Derive(42, "client/3")
	b := Derive(42, "client/3")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams from identical (seed, label) diverged at step %d", i)
		}
	}
}

func TestDeriveLabelsIndependent(t *testing.T) {
	labels := []string{"site", "client/0", "client/1", "client/10"}
	for i, la := range labels {
		for _, lb := range labels[i+1:] {
			a, b := Derive(9, la), Derive(9, lb)
			same := 0
			for k := 0; k < 100; k++ {
				if a.Uint64() == b.Uint64() {
					same++
				}
			}
			if same > 2 {
				t.Fatalf("labels %q and %q produced %d/100 identical outputs", la, lb, same)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntNBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntNUniform(t *testing.T) {
	r := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntN(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestIntRange(t *testing.T) {
	r := New(8)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.IntRange(1, 30)
		if v < 1 || v > 30 {
			t.Fatalf("IntRange(1,30) = %d", v)
		}
		if v == 1 {
			seenLo = true
		}
		if v == 30 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("IntRange(1,30) never hit an endpoint in 10000 draws; inclusive bounds broken")
	}
}

func TestIntRangeSingleton(t *testing.T) {
	r := New(9)
	for i := 0; i < 10; i++ {
		if v := r.IntRange(5, 5); v != 5 {
			t.Fatalf("IntRange(5,5) = %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(10)
	const lambda, n = 2.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(lambda)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", lambda, mean, 1/lambda)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const mu, sigma, n = 3.0, 2.0, 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(mu, sigma)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-mu) > 0.05 {
		t.Fatalf("Norm mean = %v, want %v", mean, mu)
	}
	if math.Abs(variance-sigma*sigma) > 0.2 {
		t.Fatalf("Norm variance = %v, want %v", variance, sigma*sigma)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(14)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementCoverage(t *testing.T) {
	// Sampling n of n must return every element.
	r := New(15)
	s := r.SampleWithoutReplacement(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d missing from full sample", i)
		}
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := New(16)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Fatalf("weight-3 vs weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(17)
	for _, alpha := range []float64{0.1, 0.5, 1, 5} {
		out := make([]float64, 12)
		r.Dirichlet(alpha, out)
		var sum float64
		for _, p := range out {
			if p < 0 {
				t.Fatalf("Dirichlet(alpha=%v) produced negative mass %v", alpha, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet(alpha=%v) sums to %v", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should concentrate mass: the max component under alpha=0.1
	// should on average dominate the max under alpha=5.
	r := New(18)
	maxMean := func(alpha float64) float64 {
		var total float64
		out := make([]float64, 10)
		const reps = 2000
		for i := 0; i < reps; i++ {
			r.Dirichlet(alpha, out)
			m := 0.0
			for _, p := range out {
				if p > m {
					m = p
				}
			}
			total += m
		}
		return total / reps
	}
	lo, hi := maxMean(5), maxMean(0.1)
	if hi <= lo {
		t.Fatalf("alpha=0.1 max share %v not greater than alpha=5 max share %v", hi, lo)
	}
}

func TestZeroStateGuard(t *testing.T) {
	// Whatever the seed, the generator must produce varied output.
	for _, seed := range []uint64{0, 1, math.MaxUint64} {
		r := New(seed)
		a, b := r.Uint64(), r.Uint64()
		if a == 0 && b == 0 {
			t.Fatalf("seed %d produced a dead stream", seed)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkCategorical10(b *testing.B) {
	r := New(1)
	w := make([]float64, 10)
	for i := range w {
		w[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}

// decodeWeights turns fuzz bytes into a weight vector of up to 64
// entries. Each entry starts with a tag byte choosing its kind, so the
// corpus reaches zeros, subnormals, sums that saturate and then meet
// weights too small to move them, overflow to +Inf, and the invalid
// negatives and NaNs; the last kind takes eight raw bytes as the bits.
func decodeWeights(data []byte) []float64 {
	var w []float64
	for len(data) > 0 && len(w) < 64 {
		tag, arg := data[0], byte(0)
		data = data[1:]
		if len(data) > 0 {
			arg = data[0]
		}
		switch tag % 9 {
		case 0:
			w = append(w, 0)
		case 1:
			w = append(w, math.Float64frombits(uint64(arg)+1)) // subnormal
		case 2:
			w = append(w, math.MaxFloat64/float64(2+int(arg%4))) // sums overflow
		case 3:
			w = append(w, 1e-20*float64(1+int(arg))) // lost once the sum is large
		case 4:
			w = append(w, float64(arg)+1)
		case 5:
			w = append(w, -float64(arg)-1)
		case 6:
			w = append(w, math.NaN())
		case 7:
			w = append(w, float64(arg)/256) // zero or a fraction
		default:
			var bits uint64
			for i := 0; i < 8 && len(data) > 0; i++ {
				bits = bits<<8 | uint64(data[0])
				data = data[1:]
			}
			w = append(w, math.Float64frombits(bits))
			continue
		}
		if len(data) > 0 {
			data = data[1:]
		}
	}
	return w
}

// panicMessage runs f and returns what it panicked with, or nil.
func panicMessage(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// FuzzCumulativeMatchesCategorical: for any weight vector and seed, the
// prepared draw returns Categorical's index on every draw and leaves the
// stream where Categorical leaves it, and a vector Categorical rejects
// makes Reset panic with the same message.
func FuzzCumulativeMatchesCategorical(f *testing.F) {
	f.Add(uint64(1), []byte{4, 0, 4, 2})                       // {1, 3}
	f.Add(uint64(2), []byte{0, 0, 0, 0, 4, 9, 0, 0})           // one positive among zeros
	f.Add(uint64(3), []byte{1, 0, 1, 7, 0, 0, 1, 255})         // subnormals
	f.Add(uint64(4), []byte{4, 0, 4, 5, 3, 0, 3, 9, 0, 0})     // weights too small to move the sum
	f.Add(uint64(5), []byte{2, 0, 2, 0, 2, 0, 4, 0})           // the sum overflows to +Inf
	f.Add(uint64(6), []byte{2, 0, 2, 0, 2, 0, 3, 0, 0, 0})     // then the last positive weight is lost in it
	f.Add(uint64(7), []byte{4, 0, 5, 0})                       // a negative weight
	f.Add(uint64(8), []byte{4, 0, 6, 0})                       // NaN
	f.Add(uint64(9), []byte{0, 0, 7, 0})                       // zero sum
	f.Add(uint64(10), []byte{})                                // empty
	f.Add(uint64(11), []byte{8, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0}) // +Inf
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		w := decodeWeights(data)
		want := panicMessage(func() { New(seed).Categorical(w) })
		var c Cumulative
		if got := panicMessage(func() { c.Reset(len(w), func(i int) float64 { return w[i] }) }); got != want {
			t.Fatalf("weights %v: Reset panicked with %v, Categorical with %v", w, got, want)
		}
		if want != nil {
			return
		}
		a, b := New(seed), New(seed)
		for d := 0; d < 16; d++ {
			if got, want := c.Draw(b), a.Categorical(w); got != want {
				t.Fatalf("weights %v, draw %d: Draw = %d, Categorical = %d", w, d, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("weights %v: the two forms left the stream at different positions", w)
		}
	})
}
