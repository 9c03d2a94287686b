package access

import (
	"fmt"
	"math"

	"prefetch/internal/rng"
)

// MarkovSource is the request generator of the paper's Fig. 7 experiment:
// an n-state Markov chain where entering state i issues a request for item
// i, then waits for that state's viewing time v_i before transitioning.
// Each state has between MinOut and MaxOut possible successors with random
// transition probabilities. The prefetcher is given the true outgoing
// distribution of the current state — the paper's "presupposed knowledge
// about future accesses".
type MarkovSource struct {
	n       int
	viewing []float64   // v_i per state
	succ    [][]int     // successor state IDs per state
	prob    [][]float64 // transition probabilities, parallel to succ
	state   int
	rand    *rng.Source
}

// MarkovConfig configures BuildMarkov. The zero value is invalid; use
// Fig7MarkovConfig for the paper's parameters.
type MarkovConfig struct {
	States     int     // number of states/items (paper: 100)
	MinOut     int     // minimum out-degree (paper: 10)
	MaxOut     int     // maximum out-degree (paper: 20)
	MinViewing float64 // lower bound of per-state viewing time (paper: 1)
	MaxViewing float64 // upper bound of per-state viewing time (paper: 100)
	// SkewAlpha skews the transition probabilities: weights are
	// Uniform(0,1)^SkewAlpha before normalisation, like the skewy method.
	// Zero or one keeps the paper's plain normalised-uniform weights.
	SkewAlpha float64
}

// Fig7MarkovConfig returns the paper's Fig. 7 source parameters.
func Fig7MarkovConfig() MarkovConfig {
	return MarkovConfig{States: 100, MinOut: 10, MaxOut: 20, MinViewing: 1, MaxViewing: 100}
}

// BuildMarkov constructs a random Markov source from the config using the
// given stream. Transition targets are sampled without replacement
// (self-loops allowed) and probabilities are normalised uniform weights —
// a substitution, because the paper specifies only the out-degree range.
// The source starts in state 0.
func BuildMarkov(r *rng.Source, cfg MarkovConfig) (*MarkovSource, error) {
	if cfg.States <= 0 {
		return nil, fmt.Errorf("%w: %d states", ErrBadConfig, cfg.States)
	}
	if cfg.MinOut <= 0 || cfg.MaxOut < cfg.MinOut || cfg.MaxOut > cfg.States {
		return nil, fmt.Errorf("%w: out-degree range [%d,%d] with %d states", ErrBadConfig, cfg.MinOut, cfg.MaxOut, cfg.States)
	}
	if cfg.MinViewing < 0 || cfg.MaxViewing < cfg.MinViewing {
		return nil, fmt.Errorf("%w: viewing range [%v,%v]", ErrBadConfig, cfg.MinViewing, cfg.MaxViewing)
	}
	m := &MarkovSource{
		n:       cfg.States,
		viewing: make([]float64, cfg.States),
		succ:    make([][]int, cfg.States),
		prob:    make([][]float64, cfg.States),
		rand:    r.Split(),
	}
	for s := 0; s < cfg.States; s++ {
		// Integer-valued viewing times, matching "1 <= v_i <= 100".
		m.viewing[s] = float64(r.IntRange(int(cfg.MinViewing), int(cfg.MaxViewing)))
		deg := r.IntRange(cfg.MinOut, cfg.MaxOut)
		m.succ[s] = r.SampleWithoutReplacement(cfg.States, deg)
		weights := make([]float64, deg)
		var sum float64
		for i := range weights {
			w := r.Float64()
			for w == 0 {
				w = r.Float64()
			}
			if cfg.SkewAlpha > 1 {
				w = math.Pow(w, cfg.SkewAlpha)
			}
			weights[i] = w
			sum += w
		}
		for i := range weights {
			weights[i] /= sum
		}
		m.prob[s] = weights
	}
	return m, nil
}

// States returns the number of states (= number of items).
func (m *MarkovSource) States() int { return m.n }

// State returns the current state.
func (m *MarkovSource) State() int { return m.state }

// Viewing returns the viewing time of state s.
func (m *MarkovSource) Viewing(s int) float64 { return m.viewing[s] }

// Successors returns the successor states of s and their probabilities.
// The returned slices are the source's own; callers must not modify them.
func (m *MarkovSource) Successors(s int) ([]int, []float64) {
	return m.succ[s], m.prob[s]
}

// Next transitions to a successor of the current state according to the
// transition probabilities and returns the new state — i.e. the next item
// requested.
func (m *MarkovSource) Next() int {
	s := m.state
	idx := m.rand.Categorical(m.prob[s])
	m.state = m.succ[s][idx]
	return m.state
}

// Reset returns the chain to state 0.
func (m *MarkovSource) Reset() { m.state = 0 }
