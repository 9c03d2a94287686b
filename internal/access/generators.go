// Package access provides the access models the experiments draw on: the
// probability generators behind the paper's "skewy" and "flat" methods and
// the 100-state Markov request source of Fig. 7. The learned predictors
// live in internal/predict.
package access

import (
	"errors"
	"fmt"
	"math"

	"prefetch/internal/rng"
)

// ErrBadConfig reports invalid model parameters.
var ErrBadConfig = errors.New("access: bad config")

// ProbGen generates a probability vector over n candidate items.
type ProbGen interface {
	// Name identifies the generator in logs and figure legends.
	Name() string
	// Generate fills out (len n) with probabilities summing to 1.
	Generate(r *rng.Source, out []float64)
}

// FlatGen is the paper's "flat method": a less predictable situation where
// no item dominates. Weights are i.i.d. Uniform(0,1), normalised — a
// substitution, because the paper does not give the construction.
type FlatGen struct{}

// Name implements ProbGen.
func (FlatGen) Name() string { return "flat" }

// Generate implements ProbGen.
func (FlatGen) Generate(r *rng.Source, out []float64) {
	var sum float64
	for i := range out {
		// Strictly positive weights so every candidate stays reachable.
		w := r.Float64()
		for w == 0 {
			w = r.Float64()
		}
		out[i] = w
		sum += w
	}
	for i := range out {
		out[i] /= sum
	}
}

// SkewyGen is the paper's "skewy method": the next request is highly
// predictable. Weights are Uniform(0,1)^Alpha, normalised: at the default
// Alpha=16 with n=10 the largest weight carries ~72% of the mass on
// average. Alpha <= 0 defaults to DefaultSkewAlpha.
type SkewyGen struct {
	Alpha float64
}

// DefaultSkewAlpha is the power used when SkewyGen.Alpha is unset.
const DefaultSkewAlpha = 16

// Name implements ProbGen.
func (g SkewyGen) Name() string { return "skewy" }

// Generate implements ProbGen.
func (g SkewyGen) Generate(r *rng.Source, out []float64) {
	alpha := g.Alpha
	if alpha <= 0 {
		alpha = DefaultSkewAlpha
	}
	var sum float64
	for i := range out {
		w := r.Float64()
		for w == 0 {
			w = r.Float64()
		}
		out[i] = math.Pow(w, alpha)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// ZipfGen produces a Zipf(s) profile over ranks assigned uniformly at
// random, a standard web-access skew used by the webproxy example.
type ZipfGen struct {
	S float64 // exponent; <= 0 defaults to 1
}

// Name implements ProbGen.
func (g ZipfGen) Name() string { return "zipf" }

// Generate implements ProbGen.
func (g ZipfGen) Generate(r *rng.Source, out []float64) {
	s := g.S
	if s <= 0 {
		s = 1
	}
	perm := r.Perm(len(out))
	var sum float64
	for i := range out {
		w := 1 / math.Pow(float64(i+1), s)
		out[perm[i]] = w
		sum += w
	}
	for i := range out {
		out[i] /= sum
	}
}

// GeometricGen produces probabilities proportional to Theta^rank with ranks
// shuffled, giving a tunable deterministic skew.
type GeometricGen struct {
	Theta float64 // decay in (0,1); out of range defaults to 0.5
}

// Name implements ProbGen.
func (g GeometricGen) Name() string { return "geometric" }

// Generate implements ProbGen.
func (g GeometricGen) Generate(r *rng.Source, out []float64) {
	theta := g.Theta
	if theta <= 0 || theta >= 1 {
		theta = 0.5
	}
	perm := r.Perm(len(out))
	w := 1.0
	var sum float64
	for i := range out {
		out[perm[i]] = w
		sum += w
		w *= theta
	}
	for i := range out {
		out[i] /= sum
	}
}

// GenByName returns the generator for a figure-legend name. Recognised:
// "flat", "skewy", "zipf", "geometric".
func GenByName(name string) (ProbGen, error) {
	switch name {
	case "flat":
		return FlatGen{}, nil
	case "skewy":
		return SkewyGen{}, nil
	case "zipf":
		return ZipfGen{}, nil
	case "geometric":
		return GeometricGen{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown generator %q", ErrBadConfig, name)
	}
}
