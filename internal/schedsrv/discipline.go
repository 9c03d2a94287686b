package schedsrv

import "fmt"

// fifo is the seed server's behaviour, extracted: one queue, strict
// arrival order, demand and speculative traffic indistinguishable.
//
// spec indexes the queued speculative requests for Promote: spec[c]
// lists client c's, in push order, threaded through the requests' own
// specNext links, so queueing one allocates nothing beyond the ring. A
// client has few transfers outstanding, so Promote walks one short list
// instead of the backlog. Requests leave their list when they are popped
// or promoted; because the queue and every list keep push order, a
// speculative request reaching the head of the queue is always the head
// of its client's list, and Pop asserts it. Clients hold at most one
// outstanding transfer per page, so (client, page) identifies a queued
// speculative request uniquely; Push panics on a duplicate, which would
// make Promote ambiguous.
type fifo struct {
	queue reqDeque
	spec  []reqList // queued speculative requests per client id, grown lazily
}

// reqList is a singly linked list of requests through specNext.
type reqList struct{ head, tail *Request }

func newFIFO() *fifo { return &fifo{} }

func (f *fifo) Name() string { return string(KindFIFO) }

func (f *fifo) Push(r *Request) {
	if !r.Demand {
		if r.Client >= len(f.spec) {
			f.spec = append(f.spec, make([]reqList, r.Client+1-len(f.spec))...)
		}
		l := &f.spec[r.Client]
		for q := l.head; q != nil; q = q.specNext {
			if q.Page == r.Page {
				panic(fmt.Sprintf("schedsrv: speculative request for client %d page %d already queued", r.Client, r.Page))
			}
		}
		r.specNext = nil // a resubmitted copy of a lost request may carry a stale link
		if l.tail == nil {
			l.head = r
		} else {
			l.tail.specNext = r
		}
		l.tail = r
	}
	f.queue.pushBack(r)
}

func (f *fifo) Pop(now float64) (*Request, bool) {
	if f.queue.n == 0 {
		return nil, false
	}
	r := f.queue.popFront()
	if !r.Demand {
		l := &f.spec[r.Client]
		if l.head != r {
			panic(fmt.Sprintf("schedsrv: fifo popped client %d page %d out of its client's push order", r.Client, r.Page))
		}
		l.unlink(nil, r)
	}
	return r, true
}

func (f *fifo) ReadyAt(now float64) (float64, bool) {
	if f.queue.n == 0 {
		return 0, false
	}
	return now, true
}

// Promote finds the queued speculative request and marks it demand class
// for accounting, but deliberately does not reorder: FIFO serves arrival
// order, which keeps the extracted discipline identical to the seed.
func (f *fifo) Promote(client, page int) bool {
	if client < 0 || client >= len(f.spec) {
		return false
	}
	l := &f.spec[client]
	var prev *Request
	for r := l.head; r != nil; prev, r = r, r.specNext {
		if r.Page == page {
			r.Demand = true
			l.unlink(prev, r)
			return true
		}
	}
	return false
}

func (f *fifo) Len() int { return f.queue.n }

func (f *fifo) Backlog(dst []*Request) []*Request { return f.queue.appendTo(dst) }

// unlink removes r, which follows prev (nil when r is the head), and
// clears its link, so a request never leaves the list still pointing
// into it.
func (l *reqList) unlink(prev, r *Request) {
	if prev == nil {
		l.head = r.specNext
	} else {
		prev.specNext = r.specNext
	}
	if l.tail == r {
		l.tail = prev
	}
	r.specNext = nil
}

// priority is strict demand priority: two FIFO queues, and a slot never
// serves speculative work while any demand request is queued.
type priority struct {
	demand []*Request
	spec   reqDeque
}

func newPriority() *priority { return &priority{} }

func (p *priority) Name() string { return string(KindPriority) }

func (p *priority) Push(r *Request) {
	if r.Demand {
		p.demand = append(p.demand, r)
	} else {
		p.spec.pushBack(r)
	}
}

func (p *priority) Pop(now float64) (*Request, bool) {
	if len(p.demand) > 0 {
		r := p.demand[0]
		p.demand[0] = nil
		p.demand = p.demand[1:]
		return r, true
	}
	if p.spec.n > 0 {
		return p.spec.popFront(), true
	}
	return nil, false
}

func (p *priority) ReadyAt(now float64) (float64, bool) {
	if p.Len() == 0 {
		return 0, false
	}
	return now, true
}

// Promote moves the queued speculative request for (client, page) to the
// back of the demand queue: the demand for it arrived just now, so it
// queues behind demands that arrived earlier.
func (p *priority) Promote(client, page int) bool {
	for i := 0; i < p.spec.n; i++ {
		if r := p.spec.at(i); r.Client == client && r.Page == page {
			p.spec.remove(i)
			r.Demand = true
			p.demand = append(p.demand, r)
			return true
		}
	}
	return false
}

// requeueFront takes back a preempted speculative transfer at the head of
// the speculative queue, where it conceptually came from.
func (p *priority) requeueFront(r *Request) { p.spec.pushFront(r) }

func (p *priority) Len() int { return len(p.demand) + p.spec.n }

func (p *priority) Backlog(dst []*Request) []*Request {
	return p.spec.appendTo(append(dst, p.demand...))
}

// reqDeque is a request FIFO that also takes requests back at its head:
// a ring over a power-of-two buffer, so pushes and pops at either end are
// O(1) and allocate only when the backlog outgrows the ring.
type reqDeque struct {
	buf  []*Request
	head int // ring index of the front request
	n    int
}

// at returns the i-th queued request from the front.
func (q *reqDeque) at(i int) *Request { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// appendTo appends the queued requests to dst, front first.
func (q *reqDeque) appendTo(dst []*Request) []*Request {
	for i := 0; i < q.n; i++ {
		dst = append(dst, q.at(i))
	}
	return dst
}

// grow doubles a full ring, unrolling it to start at index 0.
func (q *reqDeque) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]*Request, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *reqDeque) pushBack(r *Request) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqDeque) pushFront(r *Request) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = r
	q.n++
}

// popFront removes and returns the front request; the deque must be
// non-empty.
func (q *reqDeque) popFront() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// remove deletes the i-th request from the front, keeping the others in
// order.
func (q *reqDeque) remove(i int) {
	mask := len(q.buf) - 1
	for j := i; j < q.n-1; j++ {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
	}
	q.buf[(q.head+q.n-1)&mask] = nil
	q.n--
}
