package schedsrv

import "fmt"

// fifo is the seed server's behaviour, extracted: one queue, strict
// arrival order, demand and speculative traffic indistinguishable.
//
// The ring holds the whole queue, and spec indexes its speculative
// requests by client for Promote. Both keep push order, so a speculative
// request reaching the head of the queue is always the head of its
// client's list. Promote only reclassifies, so a promoted request leaves
// the index but keeps its place in the ring.
type fifo struct {
	queue reqDeque
	spec  specIndex
}

func newFIFO() *fifo { return &fifo{} }

func (f *fifo) Name() string { return string(KindFIFO) }

func (f *fifo) Push(r *Request) {
	if !r.Demand {
		f.spec.pushBack(r)
	}
	f.queue.pushBack(r)
}

func (f *fifo) Pop(now float64) (*Request, bool) {
	if f.queue.n == 0 {
		return nil, false
	}
	r := f.queue.popFront()
	if !r.Demand {
		f.spec.popHead(r)
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
	r := f.spec.take(client, page)
	if r == nil {
		return false
	}
	r.Demand = true
	return true
}

func (f *fifo) Len() int { return f.queue.n }

func (f *fifo) Backlog(dst []*Request) []*Request { return f.queue.appendTo(dst) }

// priority is strict demand priority: two FIFO queues, and a slot never
// serves speculative work while any demand request is queued.
//
// The speculative queue is linked through the requests themselves, so
// Promote unlinks a request from its middle in O(1); spec indexes the
// same requests by client, so Promote finds one by walking its client's
// short list instead of the backlog. requeueFront puts a preempted
// request at the head of both, so each client's list stays in queue
// order and Pop always finds its request at its client's head.
type priority struct {
	demand reqDeque
	queue  reqQueue // queued speculative requests, in service order
	spec   specIndex
}

func newPriority() *priority { return &priority{} }

func (p *priority) Name() string { return string(KindPriority) }

func (p *priority) Push(r *Request) {
	if r.Demand {
		p.demand.pushBack(r)
		return
	}
	p.spec.pushBack(r)
	p.queue.pushBack(r)
}

func (p *priority) Pop(now float64) (*Request, bool) {
	if p.demand.n > 0 {
		return p.demand.popFront(), true
	}
	if r := p.queue.head; r != nil {
		p.queue.remove(r)
		p.spec.popHead(r)
		return r, true
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
	r := p.spec.take(client, page)
	if r == nil {
		return false
	}
	p.queue.remove(r)
	r.Demand = true
	p.demand.pushBack(r)
	return true
}

// requeueFront takes back a preempted speculative transfer at the head of
// the speculative queue, where it conceptually came from.
func (p *priority) requeueFront(r *Request) {
	p.spec.pushFront(r)
	p.queue.pushFront(r)
}

func (p *priority) Len() int { return p.demand.n + p.queue.n }

func (p *priority) Backlog(dst []*Request) []*Request {
	return p.queue.appendTo(p.demand.appendTo(dst))
}

// specIndex indexes a discipline's queued speculative requests by client
// for Promote: lists[c] holds client c's in the order they stand in the
// discipline's queue, threaded through the requests' own specNext links,
// so indexing one allocates nothing. A client has few transfers
// outstanding, so a lookup walks one short list instead of the backlog.
// Clients hold at most one outstanding transfer per page, so (client,
// page) identifies a queued speculative request uniquely; pushBack panics
// on a duplicate, which would make Promote ambiguous.
type specIndex struct {
	lists []reqList // per client id, grown lazily
}

// reqList is a singly linked list of requests through specNext.
type reqList struct{ head, tail *Request }

// list returns client's list, growing the index to hold it.
func (x *specIndex) list(client int) *reqList {
	if client >= len(x.lists) {
		x.lists = append(x.lists, make([]reqList, client+1-len(x.lists))...)
	}
	return &x.lists[client]
}

// pushBack appends r at the tail of its client's list.
func (x *specIndex) pushBack(r *Request) {
	l := x.list(r.Client)
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

// pushFront puts r back at the head of its client's list.
func (x *specIndex) pushFront(r *Request) {
	l := x.list(r.Client)
	r.specNext = l.head
	l.head = r
	if l.tail == nil {
		l.tail = r
	}
}

// popHead unlinks r, which its discipline has just taken from the head of
// its queue and which must therefore head its client's list.
func (x *specIndex) popHead(r *Request) {
	l := &x.lists[r.Client]
	if l.head != r {
		panic(fmt.Sprintf("schedsrv: popped client %d page %d out of its client's queue order", r.Client, r.Page))
	}
	l.unlink(nil, r)
}

// take unlinks and returns the indexed request for (client, page), or nil
// if there is none.
func (x *specIndex) take(client, page int) *Request {
	if client < 0 || client >= len(x.lists) {
		return nil
	}
	l := &x.lists[client]
	var prev *Request
	for r := l.head; r != nil; prev, r = r, r.specNext {
		if r.Page == page {
			l.unlink(prev, r)
			return r
		}
	}
	return nil
}

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

// reqQueue is a request FIFO threaded through the requests' own
// queuePrev/queueNext links: pushes at either end and removal of any
// queued request are O(1) and allocate nothing. A push overwrites both
// links, so a resubmitted copy of a lost request may carry stale ones,
// and remove clears them.
type reqQueue struct {
	head, tail *Request
	n          int
}

func (q *reqQueue) pushBack(r *Request) {
	r.queuePrev, r.queueNext = q.tail, nil
	if q.tail != nil {
		q.tail.queueNext = r
	} else {
		q.head = r
	}
	q.tail = r
	q.n++
}

func (q *reqQueue) pushFront(r *Request) {
	r.queuePrev, r.queueNext = nil, q.head
	if q.head != nil {
		q.head.queuePrev = r
	} else {
		q.tail = r
	}
	q.head = r
	q.n++
}

// remove unlinks r, which must be queued, keeping the others in order.
func (q *reqQueue) remove(r *Request) {
	if r.queuePrev != nil {
		r.queuePrev.queueNext = r.queueNext
	} else {
		q.head = r.queueNext
	}
	if r.queueNext != nil {
		r.queueNext.queuePrev = r.queuePrev
	} else {
		q.tail = r.queuePrev
	}
	r.queuePrev, r.queueNext = nil, nil
	q.n--
}

// appendTo appends the queued requests to dst, front first.
func (q *reqQueue) appendTo(dst []*Request) []*Request {
	for r := q.head; r != nil; r = r.queueNext {
		dst = append(dst, r)
	}
	return dst
}

// reqDeque is a request FIFO on a ring over a power-of-two buffer, so
// push and pop are O(1) and allocate only when the backlog outgrows the
// ring.
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

// popFront removes and returns the front request; the deque must be
// non-empty.
func (q *reqDeque) popFront() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}
