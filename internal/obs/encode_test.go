package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// refEncode is the reference encoding: what json.Encoder.Encode writes.
func refEncode(t *testing.T, ev Event) []byte {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(b, '\n')
}

// handPickedEvents covers the encoder's edge cases explicitly: omitempty
// zeros, negative zero, subnormal and huge floats that switch to
// scientific notation, HTML-unsafe and control characters (\b and \f
// among them, whose escape depends on the Go release), invalid UTF-8,
// and the U+2028/U+2029 line separators.
var handPickedEvents = []Event{
	{},
	{T: 0, Kind: KindRoundStart, Client: -1, Page: -1},
	{T: math.Copysign(0, -1), Kind: KindRoundEnd, Client: 3, Page: 0, Access: math.Copysign(0, -1)},
	{T: 1.5, Kind: KindSpecIssue, Client: 0, Round: 7, Page: 12, Prob: 0.25, Service: 1e-7},
	{T: 1e21, Kind: KindLambda, Client: 2, Page: -1, Lambda: 1e-9, Util: 0.9999999999999999},
	{T: 9.999999999999999e20, Kind: KindLambda, Client: 2, Page: -1, L1: math.SmallestNonzeroFloat64},
	{T: 3, Kind: KindPromote, Client: 1, Page: 4, Note: "queued"},
	{T: 3, Kind: KindTrack, Client: 0, Page: -1, Note: `<b>"x"\& ` + "\n\r\t\x00\x1f"},
	{T: 3, Kind: KindTrack, Client: 0, Page: -1, Note: "bad\xffutf8 \u2028 and \u2029 ok\u00e9"},
	{T: 3, Kind: "\b", Client: 0, Page: -1, Note: "form\ffeed back\bspace"},
	{T: 4, Kind: KindDequeue, Client: 5, Page: 6, Demand: true, Waited: 0.125, Attempt: 2},
	{T: 5, Kind: KindQueueDepth, Client: -1, Page: -1, Queued: 10, QueuedDemand: 3, InFlight: 2, Util: 0.5},
	{T: 6, Kind: KindLambda, Client: 0, Page: -1, Dropped: -4, Deferred: 1 << 40},
	{T: 7, Kind: KindRoute, Client: 0, Page: 1, Replica: 3, Note: "from replica 2"},
	{T: math.MaxFloat64, Kind: KindRoundEnd, Client: 1 << 30, Page: 1 << 30, Viewing: 4.9e-324},
}

// TestAppendEventMatchesJSONHandPicked checks handPickedEvents against
// encoding/json byte for byte.
func TestAppendEventMatchesJSONHandPicked(t *testing.T) {
	for _, ev := range handPickedEvents {
		got := appendEvent(nil, ev)
		want := refEncode(t, ev)
		if !bytes.Equal(got, want) {
			t.Errorf("event %+v:\n got %s want %s", ev, got, want)
		}
	}
}

// randomNote builds adversarial strings: every escape class plus plain
// multibyte text and invalid UTF-8.
func randomNote(r *rand.Rand) string {
	pieces := []string{
		"", "plain", `"`, `\`, "<", ">", "&", "\n", "\r", "\t",
		"\x00", "\x07", "\x1f", "\x7f", "\xff", "\xc3", "é", "漢字",
		"\u2028", "\u2029", "\ufffd", "a\xffb",
	}
	var sb strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[r.Intn(len(pieces))])
	}
	return sb.String()
}

// randomFloat draws across the regimes the encoder branches on.
func randomFloat(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return r.Float64()
	case 2:
		return r.Float64() * 1e-6 // around the 'e'-format threshold
	case 3:
		return r.Float64() * 1e22
	case 4:
		return math.Float64frombits(r.Uint64() &^ (0x7ff << 52)) // subnormal-ish, finite
	default:
		return -r.Float64() * float64(r.Intn(1000))
	}
}

// TestAppendEventMatchesJSONRandomized is the property test: for a large
// randomized event population the hand-rolled encoder must agree with
// encoding/json byte for byte.
func TestAppendEventMatchesJSONRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	kinds := Kinds()
	for i := 0; i < 20000; i++ {
		ev := Event{
			T:            math.Abs(randomFloat(r)),
			Kind:         kinds[r.Intn(len(kinds))],
			Client:       r.Intn(5) - 1,
			Round:        r.Intn(3),
			Page:         r.Intn(5) - 1,
			Demand:       r.Intn(2) == 0,
			Prob:         randomFloat(r),
			Service:      randomFloat(r),
			Waited:       randomFloat(r),
			Access:       randomFloat(r),
			Viewing:      randomFloat(r),
			Lambda:       randomFloat(r),
			L1:           randomFloat(r),
			Util:         randomFloat(r),
			Replica:      r.Intn(3),
			Queued:       r.Intn(4),
			QueuedDemand: r.Intn(4),
			InFlight:     r.Intn(4),
			Attempt:      r.Intn(3),
			Cands:        r.Intn(8),
			Dropped:      int64(r.Intn(5) - 1),
			Deferred:     int64(r.Intn(5)) << uint(r.Intn(40)),
			Note:         randomNote(r),
		}
		got := appendEvent(nil, ev)
		want := refEncode(t, ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d, event %+v:\n got %s want %s", i, ev, got, want)
		}
	}
}

// TestWriterNonFiniteFallback pins the fallback: a NaN float surfaces
// json.Encoder's unsupported-value error, writes nothing, and makes the
// error sticky.
func TestWriterNonFiniteFallback(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{T: 1, Kind: KindRoundStart, Client: 0, Page: -1, Viewing: math.NaN()})
	err := w.Flush()
	if err == nil {
		t.Fatal("Flush returned nil for a NaN event")
	}
	if !strings.Contains(err.Error(), "unsupported value") {
		t.Errorf("error %q is not the encoding/json unsupported-value error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("NaN event wrote %d bytes", buf.Len())
	}
	w.Emit(Event{T: 2, Kind: KindRoundEnd, Client: 0, Page: -1})
	if werr := w.Flush(); werr != err {
		t.Errorf("sticky error changed: %v vs %v", werr, err)
	}
	if buf.Len() != 0 {
		t.Errorf("emit after sticky error wrote %d bytes", buf.Len())
	}
}

// FuzzAppendEvent round-trips appendEvent's output through
// encoding/json: for every event with finite floats it is byte for byte
// what json.Marshal writes, and json.Unmarshal reads the event back.
// Notes that are not valid UTF-8 read back with U+FFFD in place of the
// bad bytes, so they are compared only when valid. The seed corpus is
// handPickedEvents.
func FuzzAppendEvent(f *testing.F) {
	for _, ev := range handPickedEvents {
		f.Add(ev.T, string(ev.Kind), ev.Client, ev.Round, ev.Page, ev.Demand,
			ev.Prob, ev.Service, ev.Waited, ev.Access, ev.Viewing, ev.Lambda, ev.L1, ev.Util,
			ev.Replica, ev.Queued, ev.QueuedDemand, ev.InFlight, ev.Attempt, ev.Cands,
			ev.Dropped, ev.Deferred, ev.Note)
	}
	f.Fuzz(func(t *testing.T, tm float64, kind string, client, round, page int, demand bool,
		prob, service, waited, access, viewing, lambda, l1, util float64,
		replica, queued, qdemand, inflight, attempt, cands int,
		dropped, deferred int64, note string) {
		ev := Event{
			T: tm, Kind: Kind(kind), Client: client, Round: round, Page: page, Demand: demand,
			Prob: prob, Service: service, Waited: waited, Access: access, Viewing: viewing,
			Lambda: lambda, L1: l1, Util: util,
			Replica: replica, Queued: queued, QueuedDemand: qdemand, InFlight: inflight,
			Attempt: attempt, Cands: cands, Dropped: dropped, Deferred: deferred, Note: note,
		}
		if !finiteFloats(ev) {
			return // the Writer sends these to encoding/json, which rejects them
		}
		got := appendEvent(nil, ev)
		if want := refEncode(t, ev); !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\n got %s want %s", ev, got, want)
		}
		var back Event
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("json.Unmarshal(%s): %v", got, err)
		}
		if !utf8.ValidString(kind) || !utf8.ValidString(note) {
			back.Kind, back.Note = ev.Kind, ev.Note
		}
		if back != ev {
			t.Fatalf("read back %+v, want %+v", back, ev)
		}
	})
}
