package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("zero-value accumulator not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance = 32/7.
	if !almostEq(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("variance of single observation must be 0")
	}
	if a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("min/max of single observation wrong")
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	f := func(xsRaw []int8, split uint8) bool {
		xs := make([]float64, len(xsRaw))
		for i, v := range xsRaw {
			xs[i] = float64(v) / 3
		}
		var whole Accumulator
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var a, b Accumulator
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(&b)
		if a.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return almostEq(a.Mean(), whole.Mean(), 1e-9) &&
			almostEq(a.Variance(), whole.Variance(), 1e-9) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(2)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a != before {
		t.Fatal("merging empty accumulator changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || !almostEq(b.Mean(), 1.5, 1e-12) {
		t.Fatal("merge into empty accumulator failed")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 3))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v -> %v", small.CI95(), large.CI95())
	}
}

func TestBinnedSeries(t *testing.T) {
	s := NewBinnedSeries(1, 5)
	s.Add(1, 10)
	s.Add(1, 20)
	s.Add(3, 7)
	s.Add(0, 100) // clamps to bin 1
	s.Add(99, 1)  // clamps to bin 5
	if got := s.Bin(1).N(); got != 3 {
		t.Fatalf("bin 1 count = %d, want 3 (with clamped)", got)
	}
	if got := s.Bin(5).N(); got != 1 {
		t.Fatalf("bin 5 count = %d", got)
	}
	if s.Bin(2).N() != 0 {
		t.Fatal("bin 2 should be empty")
	}
	if s.Bin(0) != nil || s.Bin(6) != nil {
		t.Fatal("out-of-range Bin() must return nil")
	}
	xs, ys := s.Points()
	if len(xs) != 3 || xs[0] != 1 || xs[1] != 3 || xs[2] != 5 {
		t.Fatalf("Points xs = %v", xs)
	}
	if !almostEq(ys[0], 130.0/3, 1e-9) || ys[1] != 7 || ys[2] != 1 {
		t.Fatalf("Points ys = %v", ys)
	}
}

func TestBinnedSeriesMerge(t *testing.T) {
	a := NewBinnedSeries(0, 3)
	b := NewBinnedSeries(0, 3)
	a.Add(1, 2)
	b.Add(1, 4)
	b.Add(2, 9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.Bin(1).Mean(), 3, 1e-12) {
		t.Fatalf("merged bin mean = %v", a.Bin(1).Mean())
	}
	if a.Bin(2).N() != 1 {
		t.Fatal("merged bin 2 missing")
	}
	c := NewBinnedSeries(0, 4)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging mismatched bounds must error")
	}
}

func TestNewBinnedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBinnedSeries(5,4) did not panic")
		}
	}()
	NewBinnedSeries(5, 4)
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i & 1023))
	}
}
