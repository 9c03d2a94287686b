package sim

import (
	"fmt"

	"prefetch/internal/core"
	"prefetch/internal/obs"
	"prefetch/internal/stats"
	"prefetch/internal/workload"
)

// ScatterPoint is one (viewing time, access time) observation for the
// Figure-4 scatter plots.
type ScatterPoint struct {
	Viewing float64
	Access  float64
}

// PrefetchOnlyOptions tunes the prefetch-only harness.
type PrefetchOnlyOptions struct {
	// ScatterLimit caps the number of scatter points kept per policy
	// (the paper plots the first 500 iterations). 0 keeps none.
	ScatterLimit int

	// Tracer, when non-nil and enabled, receives a harness-level
	// decision trace: each policy runs on its own track (client id =
	// policy index, named by a track event) against a virtual clock
	// that advances by viewing + access per round. Page ids are the
	// round's item indices. Wasted prefetches resolve at round end
	// (this harness flushes the plan after every request).
	Tracer obs.Tracer
}

// PrefetchOnlyResult aggregates one policy's run.
type PrefetchOnlyResult struct {
	Policy    string
	Overall   stats.Accumulator   // access time across all rounds
	ByViewing *stats.BinnedSeries // average access time per integer v, clamped to [1, 100] (Fig. 5)
	Scatter   []ScatterPoint      // first ScatterLimit observations
	Waste     stats.Accumulator   // wasted network time per round
	Usage     stats.Accumulator   // total prefetch network time per round
}

// RunPrefetchOnly plays every round through every policy — the paper's
// "prefetch only" simulation (§4.4): the cache holds only the current
// round's prefetches and is flushed after each request. All policies face
// identical rounds (common random numbers). The PerfectPolicy oracle is
// special-cased to see the request.
func RunPrefetchOnly(rounds []workload.Round, policies []Policy, opts PrefetchOnlyOptions) ([]PrefetchOnlyResult, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("%w: no policies", ErrBadSim)
	}
	results := make([]PrefetchOnlyResult, len(policies))
	for i, pol := range policies {
		results[i] = PrefetchOnlyResult{Policy: pol.Name(), ByViewing: stats.NewBinnedSeries(1, 100)}
	}
	tr := obs.Active(opts.Tracer)
	clocks := make([]float64, len(policies)) // per-policy virtual time
	if tr != nil {
		for i, pol := range policies {
			ev := obs.Ev(0, obs.KindTrack, i)
			ev.Note = pol.Name()
			tr.Emit(ev)
		}
	}
	for ri, rd := range rounds {
		if err := rd.Validate(); err != nil {
			return nil, fmt.Errorf("round %d: %w", ri, err)
		}
		problem := rd.Problem()
		retrOf := func(id int) float64 { return rd.Retrievals[id] }
		for pi, pol := range policies {
			var plan core.Plan
			if oracle, ok := pol.(PerfectPolicy); ok {
				plan = oracle.PlanOracle(problem, rd.Requested)
			} else {
				var err error
				plan, err = pol.Plan(problem, nil)
				if err != nil {
					return nil, fmt.Errorf("round %d, policy %s: %w", ri, pol.Name(), err)
				}
			}
			t := core.AccessTime(plan, rd.Viewing, rd.Requested, retrOf)
			if tr != nil {
				clocks[pi] = traceRound(tr, pi, ri+1, clocks[pi], rd.Viewing, rd.Requested, plan, t)
			}
			res := &results[pi]
			res.Overall.Add(t)
			res.ByViewing.Add(int(rd.Viewing), t)
			res.Waste.Add(core.Waste(plan))
			res.Usage.Add(plan.TotalRetrieval())
			if len(res.Scatter) < opts.ScatterLimit {
				res.Scatter = append(res.Scatter, ScatterPoint{Viewing: rd.Viewing, Access: t})
			}
		}
	}
	return results, nil
}

// traceRound emits one round of a single-client harness — round start
// and the plan's issues at now, the request at now + viewing, wasted
// prefetches and the round end at now + viewing + access — and returns
// the advanced virtual clock.
func traceRound(tr obs.Tracer, track, round int, now, viewing float64, requested int, plan core.Plan, access float64) float64 {
	ev := obs.Ev(now, obs.KindRoundStart, track)
	ev.Round = round
	ev.Viewing = viewing
	tr.Emit(ev)
	for _, it := range plan.Items {
		e := obs.Ev(now, obs.KindSpecIssue, track)
		e.Round = round
		e.Page = it.ID
		e.Prob = it.Prob
		e.Service = it.Retrieval
		tr.Emit(e)
	}
	reqAt := now + viewing
	hit := plan.Contains(requested)
	kind := obs.KindDemandIssue
	if hit {
		kind = obs.KindSpecUseful
	}
	e := obs.Ev(reqAt, kind, track)
	e.Round = round
	e.Page = requested
	tr.Emit(e)
	end := reqAt + access
	for _, it := range plan.Items {
		if it.ID == requested {
			continue
		}
		w := obs.Ev(end, obs.KindSpecWasted, track)
		w.Round = round
		w.Page = it.ID
		w.Prob = it.Prob
		tr.Emit(w)
	}
	e = obs.Ev(end, obs.KindRoundEnd, track)
	e.Round = round
	e.Access = access
	e.Demand = !hit
	tr.Emit(e)
	return end
}
