package schedsrv

import "math"

// tokenEps absorbs float rounding between ReadyAt's wake-time arithmetic
// and Pop's eligibility check. Without it the two can disagree by one
// ulp: ReadyAt computes a refill instant that rounds to "now", plants no
// wake-up, and Pop still refuses the head because its bucket is 1e-14
// short — a permanent stall with work queued (seen in practice once
// simulated time grows large enough that now + deficit/rate == now).
// Both sides compare against need − tokenEps, so they always agree.
const tokenEps = 1e-9

// shaped is per-client token-bucket bandwidth shaping: client c accrues
// rate service-seconds of transfer credit per second, capped at burst. A
// speculative transfer starts only once its client holds credit for its
// whole service demand, so a client's speculation is throttled to its
// provisioned bandwidth share no matter how aggressive its planner is.
// Demand transfers are never delayed — they start immediately and draw
// the bucket into debt, so a client pays for demand usage with future
// speculation. Among eligible heads, arrival order wins.
//
// Shaping is deliberately non-work-conserving: ReadyAt tells the
// scheduler when the earliest bucket refills so it can plant a wake-up
// instead of spinning.
type shaped struct {
	rate, burst float64

	flows map[int]*shapedFlow
	order []int // client ids in first-submission order: deterministic scans
	size  int
}

type shapedFlow struct {
	demand []*Request
	spec   []*Request
	tokens float64
	last   float64 // time tokens was last refilled
}

func newShaped(rate, burst float64) *shaped {
	return &shaped{rate: rate, burst: burst, flows: map[int]*shapedFlow{}}
}

func (s *shaped) Name() string { return string(KindShaped) }

func (s *shaped) flow(client int) *shapedFlow {
	f, ok := s.flows[client]
	if !ok {
		f = &shapedFlow{tokens: s.burst}
		s.flows[client] = f
		s.order = append(s.order, client)
	}
	return f
}

func (s *shaped) refill(f *shapedFlow, now float64) {
	if now > f.last {
		f.tokens += s.rate * (now - f.last)
		if f.tokens > s.burst {
			f.tokens = s.burst
		}
		f.last = now
	}
}

// need is the credit a speculative transfer must hold to become eligible.
// It is capped at the bucket depth so a transfer longer than burst starts
// from a full bucket instead of waiting forever — but every transfer is
// charged its full service on start (the bucket goes into debt), so the
// long-run speculative bandwidth still cannot exceed rate.
func (s *shaped) need(r *Request) float64 {
	if r.Service < s.burst {
		return r.Service
	}
	return s.burst
}

func (s *shaped) Push(r *Request) {
	f := s.flow(r.Client)
	if r.Demand {
		f.demand = append(f.demand, r)
	} else {
		f.spec = append(f.spec, r)
	}
	s.size++
}

// Pop serves the eligible head with the smallest arrival sequence:
// demand heads are always eligible, speculative heads once their client's
// bucket covers them.
func (s *shaped) Pop(now float64) (*Request, bool) {
	bestClient := -1
	var best *Request
	bestDemand := false
	for _, client := range s.order {
		f := s.flows[client]
		if len(f.demand) > 0 {
			if r := f.demand[0]; best == nil || r.seq < best.seq {
				bestClient, best, bestDemand = client, r, true
			}
			continue
		}
		if len(f.spec) > 0 {
			s.refill(f, now)
			if r := f.spec[0]; f.tokens >= s.need(r)-tokenEps && (best == nil || r.seq < best.seq) {
				bestClient, best, bestDemand = client, r, false
			}
		}
	}
	if best == nil {
		return nil, false
	}
	f := s.flows[bestClient]
	s.refill(f, now)
	f.tokens -= best.Service // full charge; the bucket may go into debt
	if bestDemand {
		f.demand[0] = nil
		f.demand = f.demand[1:]
	} else {
		f.spec[0] = nil
		f.spec = f.spec[1:]
	}
	s.size--
	return best, true
}

// ReadyAt reports when the earliest queued head becomes eligible: now if
// any demand is queued or a bucket already covers its speculative head,
// otherwise the soonest bucket-refill instant.
func (s *shaped) ReadyAt(now float64) (float64, bool) {
	if s.size == 0 {
		return 0, false
	}
	earliest := -1.0
	for _, client := range s.order {
		f := s.flows[client]
		if len(f.demand) > 0 {
			return now, true
		}
		if len(f.spec) == 0 {
			continue
		}
		s.refill(f, now)
		deficit := s.need(f.spec[0]) - f.tokens
		if deficit <= tokenEps {
			// Pop agrees (same tolerance): this head is eligible now.
			return now, true
		}
		at := now + deficit/s.rate
		if at <= now {
			// deficit/rate vanished below now's ulp: claiming "ready now"
			// would contradict Pop, so wake at the next representable
			// instant instead (refill strictly grows the bucket there).
			at = math.Nextafter(now, math.MaxFloat64)
		}
		if earliest < 0 || at < earliest {
			earliest = at
		}
	}
	if earliest < 0 {
		// Backlogged flows exist but none has a schedulable head (rate 0
		// would do this; Validate forbids it, so this is defensive).
		return 0, false
	}
	return earliest, true
}

// Promote moves the queued speculative request for (client, page) to the
// client's demand queue, making it immediately eligible (on the client's
// credit debt). A client blocked on its own prefetch has no queued demand
// of its own, so appending preserves arrival order among demands.
func (s *shaped) Promote(client, page int) bool {
	f, ok := s.flows[client]
	if !ok {
		return false
	}
	for i, r := range f.spec {
		if r.Page == page {
			copy(f.spec[i:], f.spec[i+1:])
			f.spec[len(f.spec)-1] = nil
			f.spec = f.spec[:len(f.spec)-1]
			r.Demand = true
			f.demand = append(f.demand, r)
			return true
		}
	}
	return false
}

func (s *shaped) Len() int { return s.size }

func (s *shaped) Backlog(dst []*Request) []*Request {
	for _, client := range s.order {
		f := s.flows[client]
		dst = append(dst, f.demand...)
		dst = append(dst, f.spec...)
	}
	return dst
}
