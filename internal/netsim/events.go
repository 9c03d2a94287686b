// Package netsim is a small discrete-event simulator of the distributed
// information system underlying the paper's model: a client with a cache, a
// remote server, and a serial network pipe on which retrievals take r_i
// time units. It exists for two purposes:
//
//  1. Validation — the paper's access-time formulas (Fig. 2) are closed
//     forms; simulating each round event-by-event and comparing against
//     core.AccessTime checks the model's timing assumptions end to end.
//  2. Extensions — semantics the closed forms cannot express: aborting
//     prefetches when a demand fetch arrives, equal-priority bandwidth
//     sharing (the authors' earlier model, ref [15]), and multi-round
//     sessions where leftover prefetch work intrudes into the next viewing
//     window (§4.4).
package netsim

import "math"

// event is a scheduled callback. The firing time is stored as an integer
// tick (see timeTick): simulated times are non-negative, and the IEEE-754
// bit pattern of non-negative floats is order- and equality-preserving as
// an integer, so the heap's hot comparison is two integer compares and the
// float only reappears once per step at the metrics boundary (Clock.now).
type event struct {
	tick int64
	seq  int64 // tie-break: FIFO among simultaneous events
	fn   func()
}

func eventLess(a, b event) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.seq < b.seq
}

// timeTick maps a non-negative simulated time to its integer event key.
// The mapping is a strictly monotone bijection on t >= 0 (bit-for-bit:
// equal times produce equal ticks, and only them), so heap order under
// tick comparison is exactly heap order under float comparison.
func timeTick(t float64) int64 {
	if t == 0 {
		t = 0 // normalise -0.0, whose sign bit would misorder the key
	}
	return int64(math.Float64bits(t))
}

// Clock is a discrete-event scheduler. The zero value is ready to use.
//
// events is a 4-ary min-heap under eventLess, held inline rather than in
// a generic queue: sift-up and sift-down call eventLess directly, so the
// compiler inlines the two integer compares, and four children per node
// halve the heap's depth. (tick, seq) is a strict total order, so the pop
// order is fixed by the keys alone, whatever the heap's shape.
type Clock struct {
	now    float64
	nextID int64
	events []event
}

// Now returns the current simulated time.
func (c *Clock) Now() float64 { return c.now }

// Schedule runs fn at absolute time t (>= Now). Scheduling in the past
// panics: it is always a simulator bug.
func (c *Clock) Schedule(t float64, fn func()) {
	if t < c.now {
		panic("netsim: scheduling into the past")
	}
	c.nextID++
	c.events = append(c.events, event{tick: timeTick(t), seq: c.nextID, fn: fn})
	c.up(len(c.events) - 1)
}

// After schedules fn after a delay (>= 0).
func (c *Clock) After(delay float64, fn func()) {
	c.Schedule(c.now+delay, fn)
}

// Run processes events in time order until none remain.
func (c *Clock) Run() {
	for c.Pending() > 0 {
		c.step()
	}
}

// step processes the single earliest event; the caller must ensure at least
// one event is pending.
func (c *Clock) step() {
	if len(c.events) == 0 {
		panic("netsim: step with no pending events")
	}
	e := c.events[0]
	last := len(c.events) - 1
	c.events[0] = c.events[last]
	c.events[last] = event{} // release the callback for the GC
	c.events = c.events[:last]
	if last > 0 {
		c.down(0)
	}
	c.now = math.Float64frombits(uint64(e.tick))
	e.fn()
}

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.events) }

// up moves the event at i toward the root until its parent is smaller,
// shifting parents down into the hole rather than swapping.
func (c *Clock) up(i int) {
	h := c.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// down moves the event at i toward the leaves until no child is smaller,
// shifting the smallest child up into the hole at each level.
func (c *Clock) down(i int) {
	h := c.events
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		child := first
		for j := first + 1; j < first+4 && j < n; j++ {
			if eventLess(h[j], h[child]) {
				child = j
			}
		}
		if !eventLess(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}
