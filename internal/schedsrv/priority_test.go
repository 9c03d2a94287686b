package schedsrv

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"prefetch/internal/rng"
)

// slicePriority is the priority discipline's queue bookkeeping by brute
// force: plain slices, scanned whole on every Promote, with requeueFront
// prepending a copy of the speculative queue. TestPriorityDequeMatchesSlices
// holds the linked queue and its per-client index to it.
type slicePriority struct{ demand, spec []*Request }

func (p *slicePriority) Push(r *Request) {
	if r.Demand {
		p.demand = append(p.demand, r)
	} else {
		p.spec = append(p.spec, r)
	}
}

func (p *slicePriority) Pop() (*Request, bool) {
	if len(p.demand) > 0 {
		r := p.demand[0]
		p.demand = p.demand[1:]
		return r, true
	}
	if len(p.spec) > 0 {
		r := p.spec[0]
		p.spec = p.spec[1:]
		return r, true
	}
	return nil, false
}

func (p *slicePriority) Promote(client, page int) bool {
	for i, r := range p.spec {
		if r.Client == client && r.Page == page {
			p.spec = append(p.spec[:i:i], p.spec[i+1:]...)
			r.Demand = true
			p.demand = append(p.demand, r)
			return true
		}
	}
	return false
}

func (p *slicePriority) requeueFront(r *Request) {
	p.spec = append([]*Request{r}, p.spec...)
}

func (p *slicePriority) Backlog() []*Request {
	return append(append([]*Request(nil), p.demand...), p.spec...)
}

// TestPriorityDequeMatchesSlices runs random programs of pushes, pops,
// promotions, preemption requeues, duplicate pushes and failures on the
// priority discipline and on slicePriority, and compares them after every
// operation: the popped request, Promote's result, Len and the whole
// backlog in order. Requeued requests are often promoted at once, so
// Promote must find a request at the head of its client's list as well
// as in the middle. A duplicate speculative push must panic with the
// documented message and leave the queue as it was. A failure empties
// the discipline and pushes value copies of most outstanding requests
// into a fresh one in arrival order, as Fail, Backlog and Submit do, so
// the copies carry the links of the discipline they were lost from,
// some of them to requests that are not resubmitted.
func TestPriorityDequeMatchesSlices(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 50; trial++ {
		got, want := newPriority(), &slicePriority{}
		// Each side owns its Request objects (Promote flips Demand in
		// place); pair records the two copies of one popped request.
		type pair struct{ g, w *Request }
		var popped []pair // popped speculative requests, candidates for requeue
		var backlog []*Request
		promote := func(step, client, page int) bool {
			g, w := got.Promote(client, page), want.Promote(client, page)
			if g != w {
				t.Fatalf("trial %d step %d: Promote(%d, %d) = %v, slices %v", trial, step, client, page, g, w)
			}
			return g
		}
		next := 0
		for step := 0; step < 400; step++ {
			switch op := r.IntN(20); {
			case op < 8:
				demand := r.IntN(4) == 0
				client, page := r.IntN(6), next
				next++
				got.Push(&Request{Client: client, Page: page, Demand: demand})
				want.Push(&Request{Client: client, Page: page, Demand: demand})
			case op < 13:
				g, gok := got.Pop(0)
				w, wok := want.Pop()
				if gok != wok {
					t.Fatalf("trial %d step %d: Pop ok %v, slices %v", trial, step, gok, wok)
				}
				if !gok {
					continue
				}
				if g.Client != w.Client || g.Page != w.Page || g.Demand != w.Demand {
					t.Fatalf("trial %d step %d: Pop = %+v, slices %+v", trial, step, *g, *w)
				}
				if !g.Demand {
					popped = append(popped, pair{g, w})
				}
			case op < 15 && len(popped) > 0:
				i := r.IntN(len(popped))
				p := popped[i]
				got.requeueFront(p.g)
				want.requeueFront(p.w)
				popped = append(popped[:i], popped[i+1:]...)
				if r.IntN(2) == 0 && !promote(step, p.w.Client, p.w.Page) {
					t.Fatalf("trial %d step %d: requeued (%d, %d) not promoted", trial, step, p.w.Client, p.w.Page)
				}
			case op < 16 && len(want.spec) > 0:
				w := want.spec[r.IntN(len(want.spec))]
				msg := fmt.Sprintf("schedsrv: speculative request for client %d page %d already queued", w.Client, w.Page)
				if v := pushPanic(got, &Request{Client: w.Client, Page: w.Page}); v != msg {
					t.Fatalf("trial %d step %d: duplicate Push(%d, %d) panicked with %v, want %q", trial, step, w.Client, w.Page, v, msg)
				}
			case op < 17:
				// Fail: the outstanding requests are the popped speculative
				// ones (in flight) and the backlog, returned in arrival
				// (page) order.
				var lostG, lostW []*Request
				for _, p := range popped {
					lostG, lostW = append(lostG, p.g), append(lostW, p.w)
				}
				lostG, lostW = got.Backlog(lostG), append(lostW, want.Backlog()...)
				byArrival := func(a, b *Request) int { return cmp.Compare(a.Page, b.Page) }
				slices.SortFunc(lostG, byArrival)
				slices.SortFunc(lostW, byArrival)
				got, want, popped = newPriority(), &slicePriority{}, nil
				for i := range lostG {
					if r.IntN(4) == 0 {
						continue // rerouted or abandoned by its client
					}
					g, w := *lostG[i], *lostW[i]
					got.Push(&g)
					want.Push(&w)
				}
			default:
				client, page := r.IntN(6), r.IntN(next+1)
				if len(want.spec) > 0 && r.IntN(2) == 0 {
					w := want.spec[r.IntN(len(want.spec))]
					client, page = w.Client, w.Page
				}
				promote(step, client, page)
			}
			if g, w := got.Len(), len(want.demand)+len(want.spec); g != w {
				t.Fatalf("trial %d step %d: Len = %d, slices %d", trial, step, g, w)
			}
			backlog = got.Backlog(backlog[:0])
			wb := want.Backlog()
			if len(backlog) != len(wb) {
				t.Fatalf("trial %d step %d: Backlog has %d requests, slices %d", trial, step, len(backlog), len(wb))
			}
			for i, g := range backlog {
				if w := wb[i]; g.Client != w.Client || g.Page != w.Page || g.Demand != w.Demand {
					t.Fatalf("trial %d step %d: Backlog[%d] = %+v, slices %+v", trial, step, i, *g, *w)
				}
			}
		}
	}
}
