// Package rng provides a small, deterministic, splittable pseudo-random
// number generator and the handful of distributions the simulations need.
//
// The generator is xoshiro256++ seeded through splitmix64, following the
// reference design by Blackman and Vigna. It is implemented locally (rather
// than delegating to math/rand) so that every experiment in this repository
// is bit-for-bit reproducible across Go releases: the published figures are
// regenerated from fixed seeds and must not drift when the standard library
// changes its stream.
//
// Sources are not safe for concurrent use; derive one Source per goroutine
// with Split, which produces statistically independent streams.
package rng

import "math"

// Source is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the state and returns the next splitmix64 output.
// It is used to expand a single seed word into the xoshiro state, as
// recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds give
// independent streams; the same seed always gives the same stream.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot emit four
	// zero words in a row, but guard anyway so a hostile seed cannot wedge us.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is independent of the receiver's
// future output. The receiver is advanced.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Derive returns a Source for the named subsystem, deterministically derived
// from a master seed: the same (seed, label) pair always yields the same
// stream, and distinct labels yield statistically independent streams. This
// is the partitioned-RNG idiom for concurrent simulations — each client or
// subsystem derives its own stream up front, so the interleaving of events
// at run time cannot perturb anyone's randomness.
func Derive(seed uint64, label string) *Source {
	return New(seed ^ fnv1a64(label))
}

// fnv1a64 hashes a label with FNV-1a; implemented locally (like the
// generator itself) so derived streams never drift across Go releases.
func fnv1a64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits → uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN called with n <= 0")
	}
	return int(r.uint64N(uint64(n)))
}

// uint64N returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias.
func (r *Source) uint64N(n uint64) uint64 {
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top of the 128-bit product.
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// IntRange returns a uniform int in the inclusive range [lo, hi].
// It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.IntN(hi-lo+1)
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *Source) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed float64 with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp called with lambda <= 0")
	}
	// Inverse CDF; 1-Float64() is in (0,1] so the log argument is never 0.
	return -math.Log(1-r.Float64()) / lambda
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Source) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.IntN(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is in random order.
func (r *Source) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement with k out of range")
	}
	// Partial Fisher–Yates over an index table; O(n) space, O(n) time. The
	// simulations sample 10..20 out of 100, so this is never the bottleneck.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise Categorical panics. Linear scan, twice over the weights:
// it suits one-off draws. A vector drawn from many times is prepared once
// as a Cumulative, whose draws pick the same index from the same stream
// by binary search.
func (r *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with non-positive weight sum")
	}
	u := r.Float64() * total
	acc := 0.0
	last := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		acc += w
		last = i
		if u < acc {
			return i
		}
	}
	// Floating-point slack: u landed at or beyond the accumulated total.
	return last
}

// Cumulative is a weight vector prepared for repeated Categorical draws:
// the running sums of the weights, in index order, and the last index
// with positive weight. The zero value holds no vector; Reset prepares
// one.
type Cumulative struct {
	sums []float64
	last int
}

// Reset prepares the n weights weight(0) … weight(n−1) for Draw,
// reusing c's storage, so a caller whose weights live elsewhere (in
// struct fields, say) copies nothing. It validates as Categorical does
// and panics with the same messages. sums[i] is the running total through
// weight(i), accumulated in index order as Categorical accumulates both
// its total and its scan: a zero weight adds nothing to either, so every
// sum has Categorical's bits.
func (c *Cumulative) Reset(n int, weight func(i int) float64) {
	if cap(c.sums) < n {
		c.sums = make([]float64, 0, n)
	}
	c.sums = c.sums[:0]
	var total float64
	for i := 0; i < n; i++ {
		w := weight(i)
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
		c.sums = append(c.sums, total)
		if w != 0 {
			c.last = i
		}
	}
	if total <= 0 {
		panic("rng: Categorical with non-positive weight sum")
	}
}

// Draw returns the index r.Categorical would return for the prepared
// weights, consuming the same one Float64 from r: the first index whose
// running sum exceeds u = Float64()·total. That index has positive weight,
// since the sum before it is at most u. When u lands at or past the total,
// it returns the last positive-weight index, as Categorical does, even a
// weight too small to move the sum. Nothing is allocated.
func (c *Cumulative) Draw(r *Source) int {
	n := len(c.sums)
	u := r.Float64() * c.sums[n-1]
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u < c.sums[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == n {
		return c.last
	}
	return lo
}

// Dirichlet fills out with a sample from a symmetric Dirichlet distribution
// with concentration alpha over len(out) categories; the result sums to 1.
// alpha == 1 gives a uniform simplex sample ("flat"); alpha < 1 concentrates
// mass on few categories. It panics if alpha <= 0 or len(out) == 0.
func (r *Source) Dirichlet(alpha float64, out []float64) {
	if alpha <= 0 {
		panic("rng: Dirichlet with alpha <= 0")
	}
	if len(out) == 0 {
		panic("rng: Dirichlet with empty output")
	}
	var sum float64
	for i := range out {
		g := r.gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Vanishingly unlikely; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// gamma draws from Gamma(shape, 1) using Marsaglia–Tsang, with the usual
// boost for shape < 1.
func (r *Source) gamma(shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}
