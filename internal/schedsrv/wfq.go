package schedsrv

import "prefetch/internal/eventq"

// wfq is weighted fair queueing over (client, class) flows, using the
// virtual-clock approximation: request j of flow f gets a start tag
// S_j = max(v, F_f) and a finish tag F_j = S_j + service/weight_f, where
// F_f is the flow's previous finish tag and v is the scheduler's virtual
// time (the start tag of the last request put into service). Slots serve
// the smallest finish tag. Per-flow tags are monotone, so each flow stays
// internally FIFO while flows interleave in proportion to their weights:
// a client's speculative backlog cannot starve another client's demands,
// and the demand/speculative weight ratio prices speculation explicitly.
type wfq struct {
	demandW, specW float64

	heap *eventq.Queue[*wfqEntry]
	last map[int]float64      // flow id → previous finish tag
	spec map[wfqKey]*wfqEntry // queued speculative entries, for Promote
	v    float64              // virtual time
	size int                  // live (non-removed) entries in the heap
	seq  int64                // heap insertion tie-break
}

type wfqKey struct{ client, page int }

type wfqEntry struct {
	req     *Request
	start   float64 // virtual start tag
	finish  float64 // virtual finish tag
	seq     int64
	removed bool // promoted away; skipped on Pop
}

func wfqLess(a, b *wfqEntry) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

func newWFQ(demandW, specW float64) *wfq {
	return &wfq{
		demandW: demandW,
		specW:   specW,
		heap:    eventq.New(wfqLess),
		last:    map[int]float64{},
		spec:    map[wfqKey]*wfqEntry{},
	}
}

func (w *wfq) Name() string { return string(KindWFQ) }

// flowID maps (client, class) to a dense flow id.
func flowID(client int, demand bool) int {
	if demand {
		return client * 2
	}
	return client*2 + 1
}

func (w *wfq) weight(demand bool) float64 {
	if demand {
		return w.demandW
	}
	return w.specW
}

func (w *wfq) Push(r *Request) {
	f := flowID(r.Client, r.Demand)
	start := w.v
	if last := w.last[f]; last > start {
		start = last
	}
	finish := start + r.Service/w.weight(r.Demand)
	w.last[f] = finish
	w.seq++
	e := &wfqEntry{req: r, start: start, finish: finish, seq: w.seq}
	w.heap.Push(e)
	if !r.Demand {
		w.spec[wfqKey{r.Client, r.Page}] = e
	}
	w.size++
}

func (w *wfq) Pop(now float64) (*Request, bool) {
	for {
		e, ok := w.heap.Pop()
		if !ok {
			return nil, false
		}
		if e.removed {
			continue
		}
		if e.start > w.v {
			w.v = e.start
		}
		if !e.req.Demand {
			delete(w.spec, wfqKey{e.req.Client, e.req.Page})
		}
		w.size--
		return e.req, true
	}
}

func (w *wfq) ReadyAt(now float64) (float64, bool) {
	if w.size == 0 {
		return 0, false
	}
	return now, true
}

// Promote re-tags the queued speculative request for (client, page) into
// the client's demand flow: the old entry is tombstoned in the heap and
// the request re-enters with demand-class tags as of now. If the entry was
// the spec flow's most recent push, its finish-tag charge is rescinded so
// the client's future speculation is not billed for work the spec class
// never served; for mid-queue promotions later entries' tags already build
// on the charge and are left as-is (a bounded, conservative overcharge).
func (w *wfq) Promote(client, page int) bool {
	e, ok := w.spec[wfqKey{client, page}]
	if !ok {
		return false
	}
	e.removed = true
	delete(w.spec, wfqKey{client, page})
	w.size--
	if f := flowID(client, false); w.last[f] == e.finish {
		w.last[f] = e.start
	}
	e.req.Demand = true
	w.Push(e.req)
	return true
}

func (w *wfq) Len() int { return w.size }

// Backlog skips the tombstones Promote leaves in the heap.
func (w *wfq) Backlog(dst []*Request) []*Request {
	for _, e := range w.heap.Items() {
		if !e.removed {
			dst = append(dst, e.req)
		}
	}
	return dst
}
