package obs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"prefetch/internal/jsonl"
)

// sampleEvents exercises every field at least once, including the
// page-0 edge the encoding must not drop.
func sampleEvents() []Event {
	start := Ev(0, KindRoundStart, 0)
	start.Round = 1
	start.Viewing = 7.5

	spec := Ev(0, KindSpecIssue, 0)
	spec.Round = 1
	spec.Page = 0 // page 0 is a real page
	spec.Prob = 0.25
	spec.Service = 3

	deq := Ev(1.5, KindDequeue, 0)
	deq.Page = 0
	deq.Demand = true
	deq.Service = 3
	deq.Waited = 1.5
	deq.Attempt = 2

	lam := Ev(9, KindLambda, 1)
	lam.Round = 2
	lam.Lambda = 0.4
	lam.Util = 0.9
	lam.QueuedDemand = 3
	lam.Dropped = 2
	lam.Deferred = 1

	depth := Ev(10, KindQueueDepth, ServerClient)
	depth.Queued = 4
	depth.QueuedDemand = 1
	depth.InFlight = 2
	depth.Util = 0.75

	track := Ev(0, KindTrack, 3)
	track.Note = "skp"

	return []Event{start, spec, deq, lam, depth, track}
}

func TestWriterReadTraceRoundTrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range want {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEncodingKeepsPageZero(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ev := Ev(1, KindCacheHit, 2)
	ev.Page = 0
	w.Emit(ev)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !strings.Contains(buf.String(), `"page":0`) {
		t.Fatalf("page 0 omitted from %q", buf.String())
	}
}

func TestReadTraceWrapsErrBadLine(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("not json\n"))
	if !errors.Is(err, jsonl.ErrBadLine) {
		t.Fatalf("want ErrBadLine, got %v", err)
	}
}

func TestValidate(t *testing.T) {
	ev := Ev(1, KindRoundEnd, 0)
	if err := ev.Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	ev.T = math.NaN()
	if err := ev.Validate(); err == nil {
		t.Fatal("NaN time accepted")
	}
}

// TestFleetEventsRoundTrip: the fleet kinds and the Replica field
// encode and decode like every other event, and a zero Replica stays
// off the wire so single-server traces are unchanged.
func TestFleetEventsRoundTrip(t *testing.T) {
	evs := []Event{
		func() Event {
			ev := Ev(1, KindRoute, 3)
			ev.Page = 7
			ev.Demand = true
			ev.Replica = 2
			return ev
		}(),
		func() Event {
			ev := Ev(2, KindReplicaFail, ServerClient)
			ev.Replica = 1
			ev.Queued = 4
			return ev
		}(),
		func() Event {
			ev := Ev(3, KindReplicaRecover, ServerClient)
			ev.Replica = 1
			return ev
		}(),
		func() Event {
			ev := Ev(4, KindReRoute, 3)
			ev.Page = 7
			ev.Replica = 3
			ev.Note = "1"
			return ev
		}(),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		if err := ev.Validate(); err != nil {
			t.Fatalf("fleet event rejected: %v", err)
		}
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}
	var plain bytes.Buffer
	NewWriter(&plain).Emit(Ev(1, KindRoundStart, 0))
	if strings.Contains(plain.String(), "replica") {
		t.Fatalf("zero Replica leaked into non-fleet encoding: %q", plain.String())
	}
}

func TestKindsAllValid(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("kind %q not in kindSet", k)
		}
	}
	if Kind("nope").Valid() {
		t.Error("unknown kind reported valid")
	}
}

func TestActive(t *testing.T) {
	if Active(nil) != nil {
		t.Error("Active(nil) != nil")
	}
	if Active(Nop{}) != nil {
		t.Error("Active(Nop{}) != nil — disabled tracer must fold to nil")
	}
	c := &Collector{}
	if Active(c) != Tracer(c) {
		t.Error("Active dropped an enabled tracer")
	}
}

func TestCollectorByKind(t *testing.T) {
	c := &Collector{}
	for _, ev := range sampleEvents() {
		c.Emit(ev)
	}
	if got := c.ByKind(KindLambda); len(got) != 1 || got[0].Lambda != 0.4 {
		t.Fatalf("ByKind(lambda) = %+v", got)
	}
	if got := c.ByKind(KindPreempt); got != nil {
		t.Fatalf("ByKind(preempt) = %+v, want nil", got)
	}
}

func TestMulti(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	m := Multi{nil, Nop{}, a, b}
	if !m.Enabled() {
		t.Fatal("Multi with an enabled member reports disabled")
	}
	m.Emit(Ev(1, KindRoundEnd, 0))
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("fan-out missed a member: %d/%d", len(a.Events), len(b.Events))
	}
	if (Multi{nil, Nop{}}).Enabled() {
		t.Error("Multi of disabled members reports enabled")
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failWriter{n: 0})
	big := Ev(1, KindRoundEnd, 0)
	big.Note = strings.Repeat("x", 1<<16) // force a buffer flush mid-emit
	w.Emit(big)
	w.Emit(Ev(2, KindRoundEnd, 0))
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
}
