package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Tracer receives the event stream. Implementations are single-
// goroutine, like the simulation itself: Emit is never called
// concurrently within one run.
type Tracer interface {
	// Enabled reports whether Emit does anything; callers use it to
	// skip event construction entirely.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// Active normalises a tracer for hot-path threading: nil in, nil out,
// and a tracer whose Enabled reports false also becomes nil. The
// instrumented layers store the result and guard every emission with a
// plain nil check — the zero-cost-when-disabled convention.
func Active(t Tracer) Tracer {
	if t == nil || !t.Enabled() {
		return nil
	}
	return t
}

// Nop is the explicit do-nothing tracer: Enabled is false, so Active
// folds it to nil and no instrumented path ever constructs an event.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Collector buffers events in memory, in emission order.
type Collector struct {
	Events []Event
}

// Enabled implements Tracer.
func (*Collector) Enabled() bool { return true }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) { c.Events = append(c.Events, ev) }

// ByKind returns the collected events of one kind, in emission order.
func (c *Collector) ByKind(k Kind) []Event {
	var out []Event
	for _, ev := range c.Events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Writer streams events as JSON lines. Errors are sticky: the first
// write failure is remembered and returned by Flush, and later Emits
// are dropped, so one check at the end suffices.
//
// Encoding goes through the hand-rolled appender (encode.go), which
// emits byte-for-byte what json.Encoder would without paying per-event
// reflection — the dominant cost of traced runs. Events carrying a
// non-finite float fall back to json.Encoder so its error surfaces
// exactly as before.
//
// Each Writer memoises the floats it formats (about 40 KB): a float
// whose bits equal those of one already formatted is copied, not
// formatted again. Equal bits always format to equal bytes, so the
// output is what it would be without the memo. The memo belongs to the
// Writer, so separate Writers may run on separate goroutines.
type Writer struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	buf  []byte
	err  error
	memo floatMemo
}

// NewWriter returns a streaming JSONL tracer over w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Enabled implements Tracer.
func (*Writer) Enabled() bool { return true }

// Emit implements Tracer.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	if !finiteFloats(&ev) {
		w.err = w.enc.Encode(ev)
		return
	}
	w.buf = w.memo.appendEvent(w.buf[:0], &ev)
	_, w.err = w.bw.Write(w.buf)
}

// Flush drains the buffer and returns the first error encountered by
// any Emit or flush.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Multi fans every event out to each enabled member.
type Multi []Tracer

// Enabled implements Tracer.
func (m Multi) Enabled() bool {
	for _, t := range m {
		if t != nil && t.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer.
func (m Multi) Emit(ev Event) {
	for _, t := range m {
		if t != nil && t.Enabled() {
			t.Emit(ev)
		}
	}
}
