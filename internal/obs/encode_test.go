package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
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
// encoding/json byte for byte, twice through one memo: formatted, then
// copied from the memo.
func TestAppendEventMatchesJSONHandPicked(t *testing.T) {
	var m floatMemo
	for pass := 0; pass < 2; pass++ {
		for _, ev := range handPickedEvents {
			got := m.appendEvent(nil, &ev)
			want := refEncode(t, ev)
			if !bytes.Equal(got, want) {
				t.Errorf("pass %d, event %+v:\n got %s want %s", pass, ev, got, want)
			}
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
// encoding/json byte for byte. All events go through one memo.
func TestAppendEventMatchesJSONRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var m floatMemo
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
		got := m.appendEvent(nil, &ev)
		want := refEncode(t, ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d, event %+v:\n got %s want %s", i, ev, got, want)
		}
	}
}

// TestFiniteFloats: one NaN or ±Inf in any float field sends the event
// to json.Encoder; the extremes of the finite range do not.
func TestFiniteFloats(t *testing.T) {
	for i := range streamFields(&Event{}) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ev := Event{T: 1, Prob: math.MaxFloat64, Util: -math.MaxFloat64}
			*streamFields(&ev)[i] = f
			if finiteFloats(&ev) {
				t.Errorf("field %d = %v: finiteFloats is true", i, f)
			}
		}
	}
	ev := Event{T: math.MaxFloat64, Prob: -math.MaxFloat64, Service: math.SmallestNonzeroFloat64,
		Waited: math.Copysign(0, -1), Util: 1e308}
	if !finiteFloats(&ev) {
		t.Errorf("%+v: finiteFloats is false", ev)
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
// what json.Marshal writes, both when formatted and when copied from the
// memo, and json.Unmarshal reads the event back. Notes that are not
// valid UTF-8 read back with U+FFFD in place of the bad bytes, so they
// are compared only when valid. The seed corpus is handPickedEvents.
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
		if !finiteFloats(&ev) {
			return // the Writer sends these to encoding/json, which rejects them
		}
		var m floatMemo
		got := m.appendEvent(nil, &ev)
		want := refEncode(t, ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\n got %s want %s", ev, got, want)
		}
		if again := m.appendEvent(nil, &ev); !bytes.Equal(again, want) {
			t.Fatalf("event %+v from the memo:\n got %s want %s", ev, again, want)
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

// memoProbes are the floats FuzzWriterStream draws from: ±0, subnormals,
// both sides of the 1e-6 and 1e21 'e'-form cutoffs, the longest 'f' and
// 'e' outputs, and for each of those its negation and the value one last
// mantissa bit away. Then come pairs that share a table slot: one
// partner differs from its base only in low mantissa bits, the other
// also in the sign.
var memoProbes = func() []float64 {
	base := []float64{
		0, math.SmallestNonzeroFloat64, 2.225073858507201e-308, 2.2250738585072014e-308,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), 1.2345678901234567e-6,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, 2e21), math.MaxFloat64,
		0.1, 0.25, 1, 1.5, 3, 123.456789, 1.2345678901234567e20,
	}
	var out []float64
	for _, f := range base {
		out = append(out, f, -f, math.Float64frombits(math.Float64bits(f)^1))
	}
	for _, f := range base[4:] {
		bits := math.Float64bits(f)
		for _, flip := range []uint64{0, 1 << 63} {
			for k := uint64(2); ; k++ {
				if memoSlot(bits^flip^k) == memoSlot(bits) {
					out = append(out, f, math.Float64frombits(bits^flip^k))
					break
				}
			}
		}
	}
	return out
}()

// streamFields are the Event floats a FuzzWriterStream program sets.
func streamFields(ev *Event) []*float64 {
	return []*float64{&ev.T, &ev.Prob, &ev.Service, &ev.Waited, &ev.Access,
		&ev.Viewing, &ev.Lambda, &ev.L1, &ev.Util}
}

// streamEvents decodes a FuzzWriterStream program into events. Each step
// is an op byte and a value byte, and emits the event after changing it:
// op%10 < 9 sets that float field (t first) to memoProbes[value], or,
// when value is past the probes, to the next eight program bytes read
// as float bits (made finite); op%10 == 9 swaps t with the previous t,
// so t alternates. Fields a step leaves alone repeat from the event
// before.
func streamEvents(prog []byte) []Event {
	var evs []Event
	ev := Event{Kind: KindTransferDone, Client: 1, Page: 2}
	prevT := 0.0
	for len(prog) >= 2 {
		op, arg := int(prog[0]%10), int(prog[1])
		prog = prog[2:]
		if op == 9 {
			ev.T, prevT = prevT, ev.T
			evs = append(evs, ev)
			continue
		}
		v := 0.0
		if arg < len(memoProbes) {
			v = memoProbes[arg]
		} else if len(prog) >= 8 {
			v = math.Float64frombits(binary.LittleEndian.Uint64(prog))
			prog = prog[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = math.Float64frombits(math.Float64bits(v) &^ (1 << 62))
			}
		}
		if op == 0 {
			prevT = ev.T
		}
		*streamFields(&ev)[op] = v
		evs = append(evs, ev)
	}
	return evs
}

// writeStream emits evs through a new Writer and returns its output.
func writeStream(t *testing.T, evs []Event) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
	return buf.Bytes()
}

// checkStream compares a Writer's output with want, the json.Marshal
// lines of evs, and names the first event that differs.
func checkStream(t *testing.T, name string, got, want []byte, evs []Event) {
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.SplitAfter(got, []byte("\n"))
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	for i := range evs {
		if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s: event %d %+v:\n got %q\nwant %q", name, i, evs[i], gotLines[min(i, len(gotLines)-1)], wantLines[i])
			return
		}
	}
	t.Errorf("%s: %d bytes past the last event", name, len(got)-len(want))
}

// FuzzWriterStream checks the float memo against encoding/json: every
// line a Writer writes for an event sequence must be what json.Marshal
// writes for that event. Programs (see streamEvents) repeat and
// alternate t, reuse one float across fields, and step between values
// that differ only in the sign or the last mantissa bit, or that share a
// table slot. Two more Writers encode the sequence forwards and
// backwards at once on two goroutines, so a memo shared between Writers
// fails under the race detector.
func FuzzWriterStream(f *testing.F) {
	// Seeds take the probes twelve at a time. The first kind sets each
	// through every field with t alternating after it, and the second
	// sets each, then its successor (its negation, its last-bit
	// neighbour or its slot partner), in one field.
	for lo := 0; lo < len(memoProbes); lo += 12 {
		hi := min(lo+12, len(memoProbes))
		var sweep, pairs []byte
		for v := lo; v < hi; v++ {
			for op := byte(0); op < 9; op++ {
				sweep = append(sweep, op, byte(v), 9, 0)
			}
			if v+1 < len(memoProbes) {
				op := byte(v % 9)
				pairs = append(pairs, op, byte(v), op, byte(v+1))
			}
		}
		f.Add(sweep)
		f.Add(pairs)
	}
	// One value through several fields, and raw float bits.
	f.Add([]byte{0, 12, 1, 12, 2, 12, 9, 0, 9, 0, 0, 13, 3, 13, 9, 0})
	f.Add([]byte{0, 255, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 255, 1, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			return // long programs only make minimizing a failure slow
		}
		evs := streamEvents(prog)
		var want []byte
		for _, ev := range evs {
			want = append(want, refEncode(t, ev)...)
		}
		checkStream(t, "one writer", writeStream(t, evs), want, evs)
		rev := slices.Clone(evs)
		slices.Reverse(rev)
		var wantRev []byte
		for _, ev := range rev {
			wantRev = append(wantRev, refEncode(t, ev)...)
		}
		var fwd, back []byte
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); fwd = writeStream(t, evs) }()
		go func() { defer wg.Done(); back = writeStream(t, rev) }()
		wg.Wait()
		checkStream(t, "forwards, concurrently", fwd, want, evs)
		checkStream(t, "backwards, concurrently", back, wantRev, rev)
	})
}
