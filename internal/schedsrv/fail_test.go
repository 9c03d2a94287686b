package schedsrv

import (
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/obs"
)

// TestFailCancelsOutstandingWork: Fail cancels the in-flight transfer,
// abandons the queued backlog, and none of the lost requests ever
// reaches Done — while completions for the lost transfers stay orphaned
// when the clock drains.
func TestFailCancelsOutstandingWork(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var done int
	s.Done = func(r *Request, service, waited float64) { done++ }
	var lost int
	clock.Schedule(0, func() {
		for p := 0; p < 3; p++ {
			s.Submit(Request{Client: 0, Page: p, Service: 10, Demand: p == 0})
		}
	})
	clock.Schedule(4, func() { lost = s.Fail() })
	clock.Run()
	if lost != 3 {
		t.Fatalf("Fail lost %d requests, want 3 (1 in-flight + 2 queued)", lost)
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
// admission controller are lost on Fail, and the outstanding retry
// wake-up becomes a no-op.
func TestFailDropsDeferredRequests(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.1, AdmitWindow: 20, AdmitDefer: true})
	if err != nil {
		t.Fatal(err)
	}
	var lost int
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
	if lost != 2 {
		t.Fatalf("Fail lost %d requests, want 2 (1 in-flight + 1 deferred)", lost)
	}
	if s.DeferredNow() != 0 {
		t.Fatalf("DeferredNow() = %d after Fail, want 0", s.DeferredNow())
	}
}

// TestFailRejectsNewWork: after Fail, Promote finds nothing and Submit
// panics — a failed replica must be replaced, not reused.
func TestFailRejectsNewWork(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 7, Service: 5})
		s.Submit(Request{Client: 0, Page: 8, Service: 5})
	})
	clock.Schedule(1, func() {
		s.Fail()
		if s.Promote(0, 8) {
			t.Error("Promote succeeded on a failed scheduler")
		}
		if s.Fail() != 0 {
			t.Error("second Fail lost requests, want 0 (idempotent)")
		}
		defer func() {
			if recover() == nil {
				t.Error("Submit after Fail did not panic")
			}
		}()
		s.Submit(Request{Client: 0, Page: 9, Service: 1})
	})
	clock.Run()
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
