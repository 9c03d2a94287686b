package sim

import (
	"fmt"

	"prefetch/internal/core"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/stats"
)

// SessionOptions tunes RunMarkovSession.
type SessionOptions struct {
	// EffectiveViewing lets the policy see the true remaining capacity
	// v − backlog instead of the nominal viewing time, modelling a
	// resource-aware prefetcher (paper §1: "a resource model allows a
	// prefetcher to predict the amount of available ... resources").
	EffectiveViewing bool

	// Tracer, when non-nil and enabled, receives a decision trace on
	// track (client id) Track against a virtual clock advancing by
	// viewing + access per round. Page ids are Markov states. Wasted
	// prefetches resolve at round end (items are flushed each round;
	// only the link backlog persists).
	Tracer obs.Tracer
	// Track is the client id stamped on every event, so several policy
	// runs can share one trace file on distinct tracks.
	Track int
}

// SessionResult aggregates one policy's run through the event-driven
// session, where leftover prefetch work really does intrude into the next
// viewing window (unlike the closed-form harness, which is memoryless).
type SessionResult struct {
	Policy      string
	Access      stats.Accumulator
	NetworkBusy float64 // total link busy time
	Requests    int64
}

// RunMarkovSession replays the trace through netsim.Session under the
// policy: round k plans for state States[k]'s successors and the request
// is States[k+1]. Items are flushed after each request (the paper's
// prefetch-only setting); what persists between rounds is only the link
// backlog — the stretch intrusion of §4.4. The policy sees the weighted
// successor problems of every round.
func RunMarkovSession(trace *MarkovTrace, pol Policy, opts SessionOptions) (SessionResult, error) {
	if trace == nil || len(trace.States) < 2 {
		return SessionResult{}, fmt.Errorf("%w: empty trace", ErrBadSim)
	}
	session := netsim.NewSession(netsim.SessionOptions{KeepItems: false})
	res := SessionResult{Policy: pol.Name()}

	tr := obs.Active(opts.Tracer)
	var now float64 // virtual clock; advances by viewing + access per round
	if tr != nil {
		ev := obs.Ev(0, obs.KindTrack, opts.Track)
		ev.Note = pol.Name()
		tr.Emit(ev)
	}

	for k := 0; k+1 < len(trace.States); k++ {
		s := trace.States[k]
		requested := trace.States[k+1]
		v := trace.Chain.Viewing(s)
		succ, probs := trace.Chain.Successors(s)

		items := make([]core.Item, len(succ))
		for i, id := range succ {
			items[i] = core.Item{ID: id, Prob: probs[i], Retrieval: trace.Retrievals[id]}
		}
		planningV := v
		if opts.EffectiveViewing {
			planningV = v - session.Backlog()
			if planningV < 0 {
				planningV = 0
			}
		}
		problem := core.Problem{Items: items, Viewing: planningV, TotalProb: 1}

		successors := make([]core.WeightedProblem, 0, len(succ))
		for i, id := range succ {
			nextSucc, nextProbs := trace.Chain.Successors(id)
			nextItems := make([]core.Item, len(nextSucc))
			for j, nid := range nextSucc {
				nextItems[j] = core.Item{ID: nid, Prob: nextProbs[j], Retrieval: trace.Retrievals[nid]}
			}
			successors = append(successors, core.WeightedProblem{
				Weight:  probs[i],
				Problem: core.Problem{Items: nextItems, Viewing: trace.Chain.Viewing(id), TotalProb: 1},
			})
		}

		plan, err := pol.Plan(problem, successors)
		if err != nil {
			return SessionResult{}, fmt.Errorf("round %d: %w", k, err)
		}
		transfers := make([]netsim.Transfer, 0, plan.Len())
		for _, it := range plan.Items {
			transfers = append(transfers, netsim.Transfer{ID: it.ID, Duration: it.Retrieval})
		}
		t, err := session.Round(transfers, v, requested, trace.Retrievals[requested])
		if err != nil {
			return SessionResult{}, fmt.Errorf("round %d: %w", k, err)
		}
		res.Access.Add(t)
		res.Requests++
		if tr != nil {
			now = traceRound(tr, opts.Track, k+1, now, v, requested, plan, t)
		}
	}
	res.NetworkBusy = session.NetworkBusy()
	return res, nil
}
