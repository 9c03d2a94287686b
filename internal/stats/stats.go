// Package stats provides the small statistical toolkit used by the
// simulation harnesses: streaming moment accumulators (Welford) and binned
// series for "average Y against integer X" plots. Both are allocation-light
// so they can sit inside 50 000-iteration Monte-Carlo loops without
// showing up in profiles.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes streaming count, mean and variance using Welford's
// online algorithm, plus min and max. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 when empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 when empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 when empty.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean, or 0 when empty.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Merge folds another accumulator into a (parallel reduction). Min/max and
// moments combine exactly (Chan et al. pairwise update).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	a.n = n
}

// String summarises the accumulator for logs.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// BinnedSeries accumulates observations keyed by an integer bin and reports
// per-bin means. It backs the "average access time against viewing time"
// plots: bin = v, observation = T.
type BinnedSeries struct {
	lo, hi int
	bins   []Accumulator
}

// NewBinnedSeries creates a series over the inclusive bin range [lo, hi].
func NewBinnedSeries(lo, hi int) *BinnedSeries {
	if hi < lo {
		panic("stats: NewBinnedSeries with hi < lo")
	}
	return &BinnedSeries{lo: lo, hi: hi, bins: make([]Accumulator, hi-lo+1)}
}

// Add records observation y in bin x. Observations outside [lo, hi] are
// clamped to the nearest edge bin.
func (s *BinnedSeries) Add(x int, y float64) {
	if x < s.lo {
		x = s.lo
	}
	if x > s.hi {
		x = s.hi
	}
	s.bins[x-s.lo].Add(y)
}

// Bin returns the accumulator for bin x, or nil if out of range.
func (s *BinnedSeries) Bin(x int) *Accumulator {
	if x < s.lo || x > s.hi {
		return nil
	}
	return &s.bins[x-s.lo]
}

// Lo returns the lowest bin index.
func (s *BinnedSeries) Lo() int { return s.lo }

// Hi returns the highest bin index.
func (s *BinnedSeries) Hi() int { return s.hi }

// Points returns (x, mean) pairs for every non-empty bin, in ascending x.
func (s *BinnedSeries) Points() (xs []float64, ys []float64) {
	for i := range s.bins {
		if s.bins[i].N() == 0 {
			continue
		}
		xs = append(xs, float64(s.lo+i))
		ys = append(ys, s.bins[i].Mean())
	}
	return xs, ys
}

// Merge folds another BinnedSeries with identical bounds into s.
func (s *BinnedSeries) Merge(o *BinnedSeries) error {
	if o.lo != s.lo || o.hi != s.hi {
		return fmt.Errorf("stats: merging BinnedSeries with bounds [%d,%d] into [%d,%d]", o.lo, o.hi, s.lo, s.hi)
	}
	for i := range s.bins {
		s.bins[i].Merge(&o.bins[i])
	}
	return nil
}
