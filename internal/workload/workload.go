// Package workload generates and replays the synthetic workloads of the
// paper's experiments. A Round is one prefetch decision situation — the
// candidate probabilities, retrieval times, viewing time, and the request
// that actually arrives — so that every policy in a comparison faces the
// identical random draw (common random numbers), and so that workloads can
// be recorded to a trace file and replayed bit-for-bit.
package workload

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"prefetch/internal/access"
	"prefetch/internal/core"
	"prefetch/internal/jsonl"
	"prefetch/internal/rng"
)

// ErrBadWorkload reports invalid workload parameters or trace data.
var ErrBadWorkload = errors.New("workload: bad workload")

// Round is one decision situation: item i has probability Probs[i] and
// retrieval time Retrievals[i]; the viewing time is Viewing; Requested is
// the index of the item actually requested.
type Round struct {
	Viewing    float64   `json:"v"`
	Probs      []float64 `json:"p"`
	Retrievals []float64 `json:"r"`
	Requested  int       `json:"req"`
}

// Validate checks internal consistency.
func (rd Round) Validate() error {
	if len(rd.Probs) == 0 || len(rd.Probs) != len(rd.Retrievals) {
		return fmt.Errorf("%w: %d probs vs %d retrievals", ErrBadWorkload, len(rd.Probs), len(rd.Retrievals))
	}
	if rd.Viewing < 0 {
		return fmt.Errorf("%w: viewing %v", ErrBadWorkload, rd.Viewing)
	}
	if rd.Requested < 0 || rd.Requested >= len(rd.Probs) {
		return fmt.Errorf("%w: requested index %d of %d items", ErrBadWorkload, rd.Requested, len(rd.Probs))
	}
	for i := range rd.Probs {
		if rd.Probs[i] < 0 {
			return fmt.Errorf("%w: prob[%d] = %v", ErrBadWorkload, i, rd.Probs[i])
		}
		if rd.Retrievals[i] <= 0 {
			return fmt.Errorf("%w: retrieval[%d] = %v", ErrBadWorkload, i, rd.Retrievals[i])
		}
	}
	return nil
}

// Problem converts the round into a solver instance. Item IDs are indices.
func (rd Round) Problem() core.Problem {
	items := make([]core.Item, len(rd.Probs))
	for i := range items {
		items[i] = core.Item{ID: i, Prob: rd.Probs[i], Retrieval: rd.Retrievals[i]}
	}
	return core.Problem{Items: items, Viewing: rd.Viewing}
}

// PrefetchOnlyConfig parameterises the paper's "prefetch only" simulation
// (§4.4): n items, integer retrieval times uniform on [RMin, RMax], integer
// viewing times uniform on [VMin, VMax], probabilities from Gen.
type PrefetchOnlyConfig struct {
	N          int
	RMin, RMax int
	VMin, VMax int
	Gen        access.ProbGen
}

// Fig45Config returns the paper's Figure 4/5 parameters for the given item
// count (10 or 25) and probability generator.
func Fig45Config(n int, gen access.ProbGen) PrefetchOnlyConfig {
	return PrefetchOnlyConfig{N: n, RMin: 1, RMax: 30, VMin: 1, VMax: 100, Gen: gen}
}

// Validate checks the configuration.
func (c PrefetchOnlyConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("%w: n = %d", ErrBadWorkload, c.N)
	}
	if c.RMin <= 0 || c.RMax < c.RMin {
		return fmt.Errorf("%w: retrieval range [%d,%d]", ErrBadWorkload, c.RMin, c.RMax)
	}
	if c.VMin < 0 || c.VMax < c.VMin {
		return fmt.Errorf("%w: viewing range [%d,%d]", ErrBadWorkload, c.VMin, c.VMax)
	}
	if c.Gen == nil {
		return fmt.Errorf("%w: nil probability generator", ErrBadWorkload)
	}
	return nil
}

// Random draws count i.i.d. rounds from cfg on a stream split from r. The
// request of each round is drawn from that round's own probabilities —
// the model's "speculative knowledge" is exact, as in the paper.
func Random(r *rng.Source, cfg PrefetchOnlyConfig, count int) ([]Round, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("%w: count %d", ErrBadWorkload, count)
	}
	rand := r.Split()
	probs := make([]float64, cfg.N)
	out := make([]Round, count)
	for k := range out {
		cfg.Gen.Generate(rand, probs)
		rd := Round{
			Viewing:    float64(rand.IntRange(cfg.VMin, cfg.VMax)),
			Probs:      append([]float64(nil), probs...),
			Retrievals: make([]float64, cfg.N),
			Requested:  rand.Categorical(probs),
		}
		for i := range rd.Retrievals {
			rd.Retrievals[i] = float64(rand.IntRange(cfg.RMin, cfg.RMax))
		}
		out[k] = rd
	}
	return out, nil
}

// WriteTrace writes rounds as JSON lines.
func WriteTrace(w io.Writer, rounds []Round) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, rd := range rounds {
		if err := rd.Validate(); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if err := enc.Encode(rd); err != nil {
			return fmt.Errorf("workload: encoding round %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace reads JSON-lines rounds and validates each. Decoding is
// strict, via the shared hardened scanner (internal/jsonl): an unknown
// field, a blank line, trailing data after a round, or a truncated
// final line is an error naming the offending 1-based line, instead of
// being silently absorbed or replayed as a half-read workload.
func ReadTrace(r io.Reader) ([]Round, error) {
	var out []Round
	dec := jsonl.NewDecoder(r)
	for {
		var rd Round
		if err := dec.Decode(&rd); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		if err := rd.Validate(); err != nil {
			return nil, fmt.Errorf("line %d: %w", dec.Line(), err)
		}
		out = append(out, rd)
	}
}
