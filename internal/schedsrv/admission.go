package schedsrv

// Decision is an admission controller's verdict on a speculative request.
type Decision int

// Admission verdicts.
const (
	// Admit lets the request into the discipline's backlog.
	Admit Decision = iota
	// Drop rejects the request outright; Submit returns false and the
	// transfer never happens. The client keeps its demand path.
	Drop
	// Defer parks the request inside the scheduler; it is re-offered,
	// oldest first, after each completion until the controller admits it.
	Defer
)

// AdmissionController gates speculative requests before they reach the
// discipline. Demand requests are never consulted — the server always
// accepts real work; admission control exists to stop speculation from
// amplifying an overload. util is the scheduler's sliding-window
// utilisation estimate at now (0 when the server has been idle).
type AdmissionController interface {
	Name() string
	Admit(r Request, now, util float64) Decision
}

// UtilizationGate is the default controller: it rejects speculative
// requests while the utilisation estimate is at or above Threshold. The
// paper prices a prefetch purely by the issuing client's own stretch; at
// a shared server the real price is the queueing it inflicts on everyone,
// which grows without bound as utilisation approaches 1 — so above the
// threshold speculation is no longer worth its externality.
type UtilizationGate struct {
	Threshold    float64 // reject at util >= Threshold (> 0)
	DeferInstead bool    // park rejected requests instead of dropping them
}

// Name identifies the gate, including its mode.
func (g UtilizationGate) Name() string {
	if g.DeferInstead {
		return "util-gate/defer"
	}
	return "util-gate/drop"
}

// Admit applies the threshold.
func (g UtilizationGate) Admit(r Request, now, util float64) Decision {
	if util < g.Threshold {
		return Admit
	}
	if g.DeferInstead {
		return Defer
	}
	return Drop
}

// utilWindow estimates server utilisation over a sliding window: it
// integrates the in-flight slot count over time and reports the busy
// slot-seconds in [now-window, now] divided by the window's capacity.
// Before one full window has elapsed it divides by elapsed time, so early
// estimates are honest rather than diluted.
//
// The busy time is read off a cumulative integral, not summed: each
// completed segment carries cum, the busy slot-seconds of it and of every
// segment before it in segs. The window holds cum(last) − cum(first live
// segment), which covers the live segments after the first, plus the
// first live segment clipped at now−window, plus the open segment. That
// is O(1) work however many segments the window holds, and a binary
// search when some expired since the last transition. transition expires
// and compacts; estimate assigns no field, so its value depends only on
// the transition history and now, and a run that reads more often (a
// traced one) sees the same estimates as one that reads less.
type utilWindow struct {
	window float64
	conc   int

	segs  []utilSeg // completed busy segments, oldest first; segs[head:] live
	head  int       // expired prefix, reclaimed amortised (O(1) per transition)
	cur   int       // current in-flight count
	since float64   // time cur took effect
}

type utilSeg struct {
	from, to float64
	slots    int
	cum      float64 // busy slot-seconds of this segment and those before it in segs
}

func newUtilWindow(window float64, conc int) *utilWindow {
	return &utilWindow{window: window, conc: conc}
}

// reset empties the window as newUtilWindow leaves it, keeping the
// segment array so the next busy period does not regrow it.
func (u *utilWindow) reset() {
	u.segs = u.segs[:0]
	u.head, u.cur, u.since = 0, 0, 0
}

// transition records that the in-flight count changed to slots at now.
func (u *utilWindow) transition(now float64, slots int) {
	if u.cur > 0 && now > u.since {
		cum := float64(u.cur) * (now - u.since)
		if n := len(u.segs); n > 0 {
			cum += u.segs[n-1].cum
		}
		u.segs = append(u.segs, utilSeg{from: u.since, to: now, slots: u.cur, cum: cum})
	}
	u.cur = slots
	u.since = now
	// Trim segments that fell wholly out of the window. Expiry only moves
	// the head index; the slice is compacted when the dead prefix dominates,
	// so each segment is copied O(1) times over its life instead of once per
	// transition. Compaction also subtracts the dead prefix's total from
	// every cum, so cum spans only the live segments and a dead prefix no
	// longer than them (or 32 segments), however long the run: the
	// subtractions in estimate lose no more precision late in a run than
	// early.
	lo := now - u.window
	for u.head < len(u.segs) && u.segs[u.head].to <= lo {
		u.head++
	}
	if u.head > 32 && u.head > len(u.segs)/2 {
		base := u.segs[u.head-1].cum
		n := copy(u.segs, u.segs[u.head:])
		u.segs = u.segs[:n]
		for i := range u.segs {
			u.segs[i].cum -= base
		}
		u.head = 0
	}
}

// estimate returns the busy fraction of slot capacity over the window
// ending at now. It assigns no field.
func (u *utilWindow) estimate(now float64) float64 {
	span := u.window
	if now < span {
		span = now
	}
	if span <= 0 {
		return 0
	}
	lo := now - span
	var busy float64
	// The first live segment is the first after head to end after lo:
	// usually head itself, otherwise found by binary search, as segment
	// ends strictly increase.
	first, n := u.head, len(u.segs)
	if first < n && u.segs[first].to <= lo {
		i, j := first+1, n
		for i < j {
			mid := int(uint(i+j) >> 1)
			if u.segs[mid].to <= lo {
				i = mid + 1
			} else {
				j = mid
			}
		}
		first = i
	}
	if first < n {
		s := u.segs[first]
		busy = u.segs[n-1].cum - s.cum + float64(s.slots)*(s.to-max(s.from, lo))
	}
	if u.cur > 0 && now > u.since {
		busy += float64(u.cur) * (now - max(u.since, lo))
	}
	return busy / (span * float64(u.conc))
}
