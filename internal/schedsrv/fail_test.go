package schedsrv

import (
	"fmt"
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/rng"
)

// TestFailCancelsOutstandingWork: Fail cancels the in-flight transfer,
// abandons the queued backlog and returns all three requests in arrival
// order with their tags; none of them ever reaches Done, while the lost
// transfer's completion stays orphaned when the clock drains.
func TestFailCancelsOutstandingWork(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var done int
	s.Done = func(r *Request, service, waited float64) { done++ }
	var lost []*Request
	clock.Schedule(0, func() {
		for p := 0; p < 3; p++ {
			s.Submit(Request{Client: 0, Page: p, Service: 10, Demand: p == 0, Tag: p})
		}
	})
	clock.Schedule(4, func() { lost = s.Fail() })
	clock.Run()
	if len(lost) != 3 {
		t.Fatalf("Fail lost %d requests, want 3 (1 in-flight + 2 queued)", len(lost))
	}
	for i, r := range lost {
		if r.Page != i || r.Tag != i {
			t.Fatalf("lost[%d] is page %d tag %v, want page and tag %d (arrival order)", i, r.Page, r.Tag, i)
		}
	}
	if done != 0 {
		t.Fatalf("Done fired %d times after Fail, want 0", done)
	}
	if !s.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	if s.Queued() != 0 || s.InFlight() != 0 {
		t.Fatalf("failed scheduler reports queued=%d inflight=%d, want 0/0", s.Queued(), s.InFlight())
	}
	// The 4 time units the cancelled transfer ran are real spent bandwidth.
	if got := s.BusyTime(); got != 4 {
		t.Fatalf("BusyTime() = %v after Fail at t=4, want 4", got)
	}
	// The cancelled transfer's completion event still drains through the
	// clock as a no-op (same orphaning contract as preemption).
	if clock.Now() != 10 {
		t.Fatalf("clock drained at t=%v, want 10 (orphaned completion drains as a no-op)", clock.Now())
	}
}

// TestFailDropsDeferredRequests: speculative requests parked by the
// admission controller are lost on Fail, after the in-flight transfer
// that arrived before them, and the outstanding retry wake-up becomes a
// no-op.
func TestFailDropsDeferredRequests(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.1, AdmitWindow: 20, AdmitDefer: true})
	if err != nil {
		t.Fatal(err)
	}
	var lost []*Request
	clock.Schedule(0, func() {
		// Saturate the window so the next speculative submit defers.
		s.Submit(Request{Client: 0, Page: 0, Service: 15, Demand: true})
	})
	clock.Schedule(1, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 2})
		if s.DeferredNow() != 1 {
			t.Fatalf("DeferredNow() = %d, want 1", s.DeferredNow())
		}
	})
	clock.Schedule(2, func() { lost = s.Fail() })
	clock.Run()
	if len(lost) != 2 || lost[0].Page != 0 || lost[1].Page != 1 {
		t.Fatalf("Fail lost %v, want pages 0 then 1 (1 in-flight + 1 deferred)", lost)
	}
	if s.DeferredNow() != 0 {
		t.Fatalf("DeferredNow() = %d after Fail, want 0", s.DeferredNow())
	}
}

// TestFailRejectsNewWork: between Fail and Recover, Promote finds nothing,
// a second Fail loses nothing and Submit panics; after Recover the same
// scheduler serves new work, and its counters include the failed
// incarnation's.
func TestFailRejectsNewWork(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	s.Done = func(r *Request, service, waited float64) { done = append(done, r.Page) }
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 7, Service: 5})
		s.Submit(Request{Client: 0, Page: 8, Service: 5})
	})
	clock.Schedule(1, func() {
		s.Fail()
		if s.Promote(0, 8) {
			t.Error("Promote succeeded on a failed scheduler")
		}
		if lost := s.Fail(); lost != nil {
			t.Errorf("second Fail lost %d requests, want none (idempotent)", len(lost))
		}
		defer func() {
			if recover() == nil {
				t.Error("Submit after Fail did not panic")
			}
		}()
		s.Submit(Request{Client: 0, Page: 9, Service: 1})
	})
	clock.Schedule(3, func() {
		s.Recover()
		if s.Failed() {
			t.Fatal("Failed() = true after Recover")
		}
		if !s.Submit(Request{Client: 0, Page: 10, Service: 2}) {
			t.Error("Submit after Recover was refused")
		}
	})
	clock.Run()
	if len(done) != 1 || done[0] != 10 {
		t.Fatalf("completed pages %v, want only page 10 (submitted after Recover)", done)
	}
	// One time unit of the lost transfer plus the two of page 10.
	if s.BusyTime() != 3 || s.Started() != 2 || s.Completed() != 1 {
		t.Fatalf("busy=%v started=%d completed=%d, want 3/2/1 across the failure",
			s.BusyTime(), s.Started(), s.Completed())
	}
}

// TestFailReturnsOutstandingInIssueOrder drives random programs of
// submissions (demand and speculative), promotions, failures and
// recoveries under every discipline, with preemption and with admission
// in drop and defer modes. A test-local ledger lists every accepted
// request in issue order and strikes it at Done. Each Fail must return
// exactly the ledger's live entries, in ledger order; no lost request
// may ever complete; and at the end every accepted request is completed,
// lost or still outstanding in the scheduler.
func TestFailReturnsOutstandingInIssueOrder(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"fifo", Config{Kind: KindFIFO}},
		{"priority+preempt", Config{Kind: KindPriority, Preempt: true}},
		{"wfq", Config{Kind: KindWFQ}},
		{"shaped", Config{Kind: KindShaped, Rate: 0.25, Burst: 3}},
		{"fifo+admit-drop", Config{Kind: KindFIFO, AdmitUtil: 0.5, AdmitWindow: 8}},
		{"priority+preempt+admit-defer", Config{Kind: KindPriority, Preempt: true, AdmitUtil: 0.5, AdmitWindow: 8, AdmitDefer: true}},
		{"wfq+admit-defer", Config{Kind: KindWFQ, AdmitUtil: 0.5, AdmitWindow: 8, AdmitDefer: true}},
		{"shaped+admit-defer", Config{Kind: KindShaped, Rate: 0.25, Burst: 3, AdmitUtil: 0.5, AdmitWindow: 8, AdmitDefer: true}},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			var fails, lostTotal, lostDeferred, preempts, dropped, recoveredDone int64
			for seed := uint64(1); seed <= 40; seed++ {
				st := runFailProgram(t, seed, c.cfg)
				fails += st.fails
				lostTotal += st.lost
				lostDeferred += st.lostDeferred
				preempts += st.preempts
				dropped += st.dropped
				recoveredDone += st.recoveredDone
			}
			if fails == 0 || lostTotal == 0 || recoveredDone == 0 {
				t.Errorf("fails=%d lost=%d completions after a recovery=%d: the program never exercised the failure path",
					fails, lostTotal, recoveredDone)
			}
			if c.cfg.Preempt && preempts == 0 {
				t.Error("no preemption happened")
			}
			if c.cfg.AdmitDefer && lostDeferred == 0 {
				t.Error("no failure lost a deferred request")
			}
			if c.cfg.AdmitUtil > 0 && !c.cfg.AdmitDefer && dropped == 0 {
				t.Error("admission dropped nothing")
			}
		})
	}
}

// failProgramStats counts what one random program exercised.
type failProgramStats struct {
	fails, lost, lostDeferred, preempts, dropped, recoveredDone int64
}

// runFailProgram plays one random program against a fresh scheduler and
// checks it against the test-local issue ledger.
func runFailProgram(t *testing.T, seed uint64, base Config) failProgramStats {
	t.Helper()
	r := rng.New(seed)
	cfg := base
	cfg.Concurrency = 1 + r.IntN(4)
	var clock netsim.Clock
	s, err := New(&clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		st        failProgramStats
		ledger    []int  // tags of accepted requests, issue order
		ended     []bool // by tag: completed or lost
		accepted  int64
		completed int64
		recovered bool
		submitted [][2]int // (client, page) of every scripted submission
	)
	s.Done = func(req *Request, service, waited float64) {
		tag := req.Tag.(int)
		if ended[tag] {
			t.Fatalf("seed %d: request %d ended twice (Done after completion or loss)", seed, tag)
		}
		ended[tag] = true
		completed++
		if recovered {
			st.recoveredDone++
		}
	}
	at := 0.0
	for i := 0; i < 160; i++ {
		if r.IntN(3) == 0 {
			at += float64(r.IntN(3))
		}
		roll := r.IntN(20)
		client, page := r.IntN(4), i
		service := float64(1 + r.IntN(4))
		demand := r.IntN(3) == 0
		if roll < 14 {
			submitted = append(submitted, [2]int{client, page})
		} else if len(submitted) > 0 {
			// Promote one of the latest submissions, most likely still
			// queued.
			prev := submitted[len(submitted)-1-r.IntN(min(len(submitted), 6))]
			client, page = prev[0], prev[1]
		}
		clock.Schedule(at, func() {
			switch {
			case roll < 14: // submit
				if s.Failed() {
					return
				}
				tag := len(ended)
				ended = append(ended, false)
				if s.Submit(Request{Client: client, Page: page, Service: service, Demand: demand, Tag: tag}) {
					ledger = append(ledger, tag)
					accepted++
				} else {
					ended[tag] = true
				}
			case roll < 18: // promote
				ok := s.Promote(client, page)
				if ok && s.Failed() {
					t.Fatalf("seed %d: Promote succeeded on a failed scheduler", seed)
				}
			case roll == 18: // fail
				wasUp := !s.Failed()
				deferred := s.DeferredNow()
				lost := s.Fail()
				if !wasUp {
					if lost != nil {
						t.Fatalf("seed %d: Fail on a failed scheduler lost %d requests", seed, len(lost))
					}
					return
				}
				var want []int
				for _, tag := range ledger {
					if !ended[tag] {
						want = append(want, tag)
					}
				}
				got := make([]int, len(lost))
				for j, req := range lost {
					got[j] = req.Tag.(int)
					ended[got[j]] = true
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d t=%v: Fail returned tags %v, ledger holds %v", seed, clock.Now(), got, want)
				}
				ledger = ledger[:0]
				st.fails++
				st.lost += int64(len(lost))
				st.lostDeferred += int64(deferred)
			default: // recover
				if s.Failed() {
					s.Recover()
					recovered = true
				}
			}
		})
	}
	clock.Run()
	outstanding := int64(0)
	for _, tag := range ledger {
		if !ended[tag] {
			outstanding++
		}
	}
	if held := int64(s.InFlight() + s.Queued() + s.DeferredNow()); held != outstanding {
		t.Fatalf("seed %d: scheduler holds %d requests, ledger %d", seed, held, outstanding)
	}
	if accepted != completed+st.lost+outstanding {
		t.Fatalf("seed %d: accepted %d != completed %d + lost %d + outstanding %d",
			seed, accepted, completed, st.lost, outstanding)
	}
	if s.Completed() != completed || s.Dropped()+accepted != int64(len(ended)) {
		t.Fatalf("seed %d: Completed()=%d (Done saw %d), Dropped()=%d + accepted %d != submitted %d",
			seed, s.Completed(), completed, s.Dropped(), accepted, len(ended))
	}
	st.preempts = s.Preemptions()
	st.dropped = s.Dropped()
	return st
}

// gateLog is an admission controller that defers speculative requests for
// pages >= 100 until time 15 and records when it was asked about them.
type gateLog struct{ at []float64 }

func (g *gateLog) Name() string { return "gate-log" }

func (g *gateLog) Admit(r Request, now, util float64) Decision {
	if r.Page < 100 {
		return Admit
	}
	g.at = append(g.at, now)
	if now < 15 {
		return Defer
	}
	return Admit
}

// TestRecoverIgnoresStaleWakeups: a shaping wake-up (due at t=8) and a
// deferred-request retry (due at t=12.5) planted before Fail must not act
// on the recovered scheduler. After Recover at t=2 the new incarnation
// plants its own wake-up for t=8, so a stale wake-up firing first would
// start page 4 before the probe event scheduled at t=8 in between them;
// and a stale retry would ask admission about page 101 at t=12.5.
func TestRecoverIgnoresStaleWakeups(t *testing.T) {
	var clock netsim.Clock
	gate := &gateLog{}
	// Rate 0.5 and burst 8 are the shaping defaults.
	s, err := New(&clock, Config{Concurrency: 2, Kind: KindShaped, Admission: gate})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	s.OnStart = func(r *Request) { log = append(log, fmt.Sprintf("start %d @%v", r.Page, clock.Now())) }
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 10}) // starts; bucket 8 → -2
		s.Submit(Request{Client: 0, Page: 2, Service: 2})  // waits for credit: wake-up at 8
		s.Submit(Request{Client: 1, Page: 100, Service: 1})
		if s.DeferredNow() != 1 {
			t.Fatalf("DeferredNow() = %d, want 1 (retry due at 12.5)", s.DeferredNow())
		}
	})
	clock.Schedule(1, func() {
		if lost := s.Fail(); len(lost) != 3 {
			t.Fatalf("Fail lost %d requests, want 3", len(lost))
		}
	})
	clock.Schedule(2, func() {
		s.Recover()
		clock.Schedule(8, func() { log = append(log, fmt.Sprintf("probe @%v", clock.Now())) })
		s.Submit(Request{Client: 0, Page: 3, Service: 9}) // fresh bucket 8 → -1
		s.Submit(Request{Client: 0, Page: 4, Service: 2}) // wake-up at 2 + 3/0.5 = 8
	})
	clock.Schedule(3, func() {
		s.Submit(Request{Client: 1, Page: 101, Service: 1}) // deferred: retry due at 15.5
	})
	clock.Run()
	want := []string{"start 1 @0", "start 3 @2", "probe @8", "start 4 @8", "start 101 @15.5"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("start log %q, want %q", log, want)
	}
	// Asked at submission (0 and 3), after the completions of pages 4 and
	// 3 (10 and 11), and at the new incarnation's retry (15.5).
	if got, want := fmt.Sprint(gate.at), fmt.Sprint([]float64{0, 3, 10, 11, 15.5}); got != want {
		t.Errorf("admission asked at %s, want %s", got, want)
	}
}

// TestSnapshotEmitsOneQueueDepth: a traced Snapshot emits exactly one
// queue_depth sample, and its backlog fields are the Queued and InFlight
// accessors a router reads.
func TestSnapshotEmitsOneQueueDepth(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.Collector{}
	s.Tracer = tr
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 0, Service: 10, Demand: true})
		s.Submit(Request{Client: 1, Page: 1, Service: 3})
	})
	clock.Schedule(2, func() {
		before := len(tr.Events)
		fb := s.Snapshot(clock.Now())
		if got := len(tr.Events) - before; got != 1 || tr.Events[before].Kind != obs.KindQueueDepth {
			t.Fatalf("Snapshot emitted %d events (%v), want 1 queue_depth", got, tr.Events[before:])
		}
		if fb.Queued != s.Queued() || fb.InFlight != s.InFlight() {
			t.Fatalf("feedback queued=%d inflight=%d, accessors %d/%d", fb.Queued, fb.InFlight, s.Queued(), s.InFlight())
		}
		if fb.Queued != 1 || fb.InFlight != 1 {
			t.Fatalf("feedback queued=%d inflight=%d, want 1/1", fb.Queued, fb.InFlight)
		}
	})
	clock.Run()
}
