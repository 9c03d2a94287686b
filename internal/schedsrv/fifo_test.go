package schedsrv

import (
	"fmt"
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/rng"
)

// sliceFIFO is the fifo discipline by brute force: one slice in arrival
// order, scanned whole on every Promote and duplicate check.
type sliceFIFO struct{ queue []*Request }

// dup reports whether a speculative request for (client, page) is queued.
func (m *sliceFIFO) dup(client, page int) bool {
	for _, q := range m.queue {
		if !q.Demand && q.Client == client && q.Page == page {
			return true
		}
	}
	return false
}

func (m *sliceFIFO) Pop() (*Request, bool) {
	if len(m.queue) == 0 {
		return nil, false
	}
	r := m.queue[0]
	m.queue = m.queue[1:]
	return r, true
}

func (m *sliceFIFO) Promote(client, page int) bool {
	for _, q := range m.queue {
		if !q.Demand && q.Client == client && q.Page == page {
			q.Demand = true
			return true
		}
	}
	return false
}

// pushPanic pushes r and returns the panic value, or nil.
func pushPanic(d Discipline, r *Request) (v any) {
	defer func() { v = recover() }()
	d.Push(r)
	return nil
}

// TestFIFOMatchesSliceModel runs random Push/Pop/Promote/Backlog programs
// on the fifo discipline and on sliceFIFO and compares them after every
// operation: the popped request, Promote's result, the whole backlog in
// order, and Len. Pages come from a small range, so duplicate speculative
// pushes happen; the fifo must panic on exactly those, with the
// documented message, and stay usable. Client ids include sparse large
// ones (the per-client index grows lazily) and Promote also asks for
// negative and never-seen clients. Programs are long enough to wrap and
// grow the ring several times.
func TestFIFOMatchesSliceModel(t *testing.T) {
	r := rng.New(41)
	clients := []int{0, 1, 2, 3, 4, 5, 17, 300}
	for trial := 0; trial < 60; trial++ {
		got, want := newFIFO(), &sliceFIFO{}
		// Each side owns its Request objects (Promote flips Demand in
		// place); Tag pairs the two copies of one request.
		next := 0
		var backlog []*Request
		for step := 0; step < 600; step++ {
			switch op := r.IntN(20); {
			case op < 9:
				client, page := clients[r.IntN(len(clients))], r.IntN(6)
				demand := r.IntN(4) == 0
				g := &Request{Client: client, Page: page, Demand: demand, Tag: next}
				w := &Request{Client: client, Page: page, Demand: demand, Tag: next}
				next++
				v := pushPanic(got, g)
				if !demand && want.dup(client, page) {
					msg := fmt.Sprintf("schedsrv: speculative request for client %d page %d already queued", client, page)
					if v != msg {
						t.Fatalf("trial %d step %d: duplicate Push(%d, %d) panicked with %v, want %q", trial, step, client, page, v, msg)
					}
					continue
				}
				if v != nil {
					t.Fatalf("trial %d step %d: Push(%d, %d) panicked: %v", trial, step, client, page, v)
				}
				want.queue = append(want.queue, w)
			case op < 15:
				g, gok := got.Pop(0)
				w, wok := want.Pop()
				if gok != wok {
					t.Fatalf("trial %d step %d: Pop ok %v, model %v", trial, step, gok, wok)
				}
				if gok && (g.Tag != w.Tag || g.Demand != w.Demand) {
					t.Fatalf("trial %d step %d: Pop = %+v, model %+v", trial, step, *g, *w)
				}
			default:
				client := clients[r.IntN(len(clients))]
				switch r.IntN(8) {
				case 0:
					client = -1
				case 1:
					client = 1000
				}
				page := r.IntN(7)
				if g, w := got.Promote(client, page), want.Promote(client, page); g != w {
					t.Fatalf("trial %d step %d: Promote(%d, %d) = %v, model %v", trial, step, client, page, g, w)
				}
			}
			if got.Len() != len(want.queue) {
				t.Fatalf("trial %d step %d: Len = %d, model %d", trial, step, got.Len(), len(want.queue))
			}
			if _, ok := got.ReadyAt(3); ok != (len(want.queue) > 0) {
				t.Fatalf("trial %d step %d: ReadyAt ok = %v with %d queued", trial, step, ok, len(want.queue))
			}
			backlog = got.Backlog(backlog[:0])
			if len(backlog) != len(want.queue) {
				t.Fatalf("trial %d step %d: Backlog has %d requests, model %d", trial, step, len(backlog), len(want.queue))
			}
			for i, g := range backlog {
				if w := want.queue[i]; g.Tag != w.Tag || g.Demand != w.Demand {
					t.Fatalf("trial %d step %d: Backlog[%d] = %+v, model %+v", trial, step, i, *g, *w)
				}
			}
		}
	}
}

// modelReq is one submitted request in TestFIFOSchedulerMatchesModel's
// model of the scheduler.
type modelReq struct {
	tag          int
	client, page int
	demand       bool
	started      bool
}

// TestFIFOSchedulerMatchesModel drives a FIFO Scheduler with random
// programs of Submit, Promote, completions, Fail and Recover and holds it
// to a model kept as one slice of outstanding requests in arrival order.
// Every start must take the oldest unstarted request while a slot is
// free; every Done must be a started request; Queued, QueuedDemand and
// InFlight must match the model after every operation; Promote must find
// a speculative request whether it is queued or in flight; and Fail must
// return exactly the outstanding requests, in arrival order, with their
// promoted classes. Speculative (client, page) pairs are kept distinct among
// outstanding requests, as the clients that use the scheduler keep them.
func TestFIFOSchedulerMatchesModel(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 40; trial++ {
		var clock netsim.Clock
		conc := 1 + r.IntN(3)
		s, err := New(&clock, Config{Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		var out []*modelReq // outstanding, in arrival order
		find := func(tag int) (int, *modelReq) {
			for i, m := range out {
				if m.tag == tag {
					return i, m
				}
			}
			t.Fatalf("trial %d: request %d is not outstanding", trial, tag)
			return 0, nil
		}
		s.OnStart = func(req *Request) {
			_, m := find(req.Tag.(int))
			inFlight := 0
			for _, o := range out {
				if o.started {
					inFlight++
				} else if o != m {
					t.Fatalf("trial %d: started request %d ahead of older request %d", trial, m.tag, o.tag)
				} else {
					break
				}
			}
			if m.started || inFlight >= conc {
				t.Fatalf("trial %d: start of request %d (started %v) with %d of %d slots busy", trial, m.tag, m.started, inFlight, conc)
			}
			m.started = true
		}
		s.Done = func(req *Request, service, waited float64) {
			i, m := find(req.Tag.(int))
			if !m.started || m.demand != req.Demand {
				t.Fatalf("trial %d: Done for request %d: started %v, demand %v, model demand %v", trial, m.tag, m.started, req.Demand, m.demand)
			}
			out = append(out[:i], out[i+1:]...)
		}
		check := func(step int) {
			var queued, queuedDemand, inFlight int
			for _, m := range out {
				switch {
				case m.started:
					inFlight++
				case m.demand:
					queued++
					queuedDemand++
				default:
					queued++
				}
			}
			if s.Queued() != queued || s.QueuedDemand() != queuedDemand || s.InFlight() != inFlight {
				t.Fatalf("trial %d step %d: Queued/QueuedDemand/InFlight = %d/%d/%d, model %d/%d/%d",
					trial, step, s.Queued(), s.QueuedDemand(), s.InFlight(), queued, queuedDemand, inFlight)
			}
		}

		next := 0
		steps := 0
		var program func()
		program = func() {
			steps++
			switch op := r.IntN(20); {
			case s.Failed():
				if s.Promote(0, 0) {
					t.Fatalf("trial %d step %d: Promote on a failed scheduler reported true", trial, steps)
				}
				if op < 6 {
					s.Recover()
				}
			case op < 10:
				client, page := r.IntN(5), r.IntN(6)
				demand := r.IntN(4) == 0
				if !demand {
					for _, m := range out {
						if !m.demand && m.client == client && m.page == page {
							demand = true // keep speculative keys distinct
							break
						}
					}
				}
				m := &modelReq{tag: next, client: client, page: page, demand: demand}
				next++
				out = append(out, m)
				service := float64(1+r.IntN(4)) / 2
				if !s.Submit(Request{Client: client, Page: page, Service: service, Demand: demand, Tag: m.tag}) {
					t.Fatalf("trial %d step %d: Submit dropped with no admission control", trial, steps)
				}
			case op < 18:
				client, page := r.IntN(6), r.IntN(7)
				var want *modelReq
				for _, m := range out {
					if !m.demand && m.client == client && m.page == page {
						want = m
					}
				}
				if got := s.Promote(client, page); got != (want != nil) {
					t.Fatalf("trial %d step %d: Promote(%d, %d) = %v, model finds %+v", trial, steps, client, page, got, want)
				}
				if want != nil {
					want.demand = true
				}
			default:
				lost := s.Fail()
				if len(lost) != len(out) {
					t.Fatalf("trial %d step %d: Fail lost %d requests, model has %d outstanding", trial, steps, len(lost), len(out))
				}
				for i, req := range lost {
					if m := out[i]; req.Tag.(int) != m.tag || req.Demand != m.demand {
						t.Fatalf("trial %d step %d: Fail[%d] = request %v (demand %v), model %d (demand %v)",
							trial, steps, i, req.Tag, req.Demand, m.tag, m.demand)
					}
				}
				out = out[:0]
			}
			check(steps)
			if steps < 500 {
				clock.After(float64(r.IntN(3))/4, program)
			}
		}
		clock.Schedule(0, program)
		clock.Run()
		if !s.Failed() && len(out) != 0 {
			t.Fatalf("trial %d: %d requests outstanding after the clock drained", trial, len(out))
		}
	}
}

// TestFIFOSteadyStateAllocs: once the ring and the per-client lists have
// reached their peak sizes, Push, Promote and Pop allocate nothing.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	reqs := make([]*Request, 256)
	for i := range reqs {
		reqs[i] = &Request{Client: i % 16, Page: i}
	}
	f := newFIFO()
	cycle := func() {
		for i, r := range reqs {
			r.Demand = i%5 == 0
			f.Push(r)
		}
		for i := 0; i < len(reqs); i += 7 {
			f.Promote(reqs[i].Client, reqs[i].Page)
		}
		for f.Len() > 0 {
			f.Pop(0)
		}
	}
	cycle() // grow the ring and the lists
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("steady-state fifo cycle: %v allocs, want 0", allocs)
	}
}
