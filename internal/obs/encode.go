package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// Hand-rolled Event encoder. json.Encoder spends most of a traced run's
// overhead on per-event reflection; this appender produces byte-for-byte
// the same JSONL (field order, omitempty semantics, float formatting,
// HTML-escaped strings, trailing newline) without it, so existing traces,
// golden files and diff-based determinism gates are unaffected. The
// equivalence is pinned by a randomized property test against
// json.Marshal (encode_test.go).
//
// Float formatting was the encoder's largest cost, and trace floats
// repeat: most events carry the same t as the one before, and a run
// draws its probabilities, service times and utilisations from a few
// hundred values. So each Writer keeps a floatMemo of the bytes it
// already formatted, keyed on the full IEEE-754 bits: a last-t slot and
// a direct-mapped table for the optional floats. A hit copies the
// stored bytes; a miss formats and stores. appendJSONFloat is a pure
// function of the bits, and a hit requires all 64 of them to match, so
// the memo cannot change a byte. It sits after the f == 0 omission
// (-0 is still omitted) and only ever sees finite values (non-finite
// events take the json.Encoder path). FuzzWriterStream checks event
// sequences through one Writer against json.Marshal.

const hexDigits = "0123456789abcdef"

// htmlSafe mirrors encoding/json's htmlSafeSet: printable ASCII except
// the JSON metacharacters and the HTML-sensitive <, >, &.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// shortBF reports whether encoding/json writes the control bytes \b and
// \f as two-char escapes (Go 1.22 and later) rather than as \u0008 and
// \u000c; the encoder follows the toolchain it is built with.
var shortBF = func() bool {
	b, _ := json.Marshal("\b")
	return string(b) == `"\b"`
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on: two-char escapes for \ " \n \r \t (and for
// \b \f where shortBF), \u00xx for other control and HTML-unsafe bytes,
// � for invalid UTF-8, and  /  for the line separators
// JavaScript chokes on.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b', '\f':
				if !shortBF {
					b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				} else if c == '\b' {
					b = append(b, '\\', 'b')
				} else {
					b = append(b, '\\', 'f')
				}
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder:
// shortest representation, 'f' form except for magnitudes outside
// [1e-6, 1e21) which use 'e' with the exponent's leading zero trimmed.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// finiteFloats reports whether every float field is encodable; NaN and
// ±Inf must take the reflective path to reproduce encoding/json's
// UnsupportedValueError byte for byte (it writes nothing and errors).
// x*0 is ±0 for finite x and NaN for NaN and ±Inf, and a NaN term makes
// the sum NaN, which compares unequal to 0.
func finiteFloats(ev *Event) bool {
	return ev.T*0+ev.Prob*0+ev.Service*0+ev.Waited*0+ev.Access*0+
		ev.Viewing*0+ev.Lambda*0+ev.L1*0+ev.Util*0 == 0
}

// floatTextMax bounds appendJSONFloat's output: the longest is a negative
// 17-digit value just above 1e-6 in 'f' form, such as
// -0.0000010000000000000002 (25 bytes); the longest 'e' form,
// -2.2250738585072014e-308, is 24. appendFloat stores nothing longer, so
// an entry never holds a truncated text.
const floatTextMax = 25

// floatText is one memoised float: its bits and the bytes
// appendJSONFloat wrote for them. n == 0 marks an empty entry.
type floatText struct {
	bits uint64
	n    uint8
	text [floatTextMax]byte
}

// appendFloat appends f's JSON bytes, copying them from e when e holds
// f's bits, and otherwise formatting f and storing the result in e.
func (e *floatText) appendFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if e.n != 0 && e.bits == bits {
		return append(b, e.text[:e.n]...)
	}
	start := len(b)
	b = appendJSONFloat(b, f)
	if n := len(b) - start; n <= floatTextMax {
		e.bits, e.n = bits, uint8(n)
		copy(e.text[:], b[start:])
	}
	return b
}

// memoBits sizes the optional-float table: 1,024 entries of 40 bytes.
const memoBits = 10

// memoSlot is a float's table index: the top memoBits of a Fibonacci
// hash of its bits, so that values differing only in low mantissa bits
// spread.
func memoSlot(bits uint64) uint64 { return (bits * 0x9e3779b97f4a7c15) >> (64 - memoBits) }

// floatMemo is one Writer's memo of formatted floats. t is the last
// timestamp: events arrive in time order, and most share the previous
// event's t. table holds all optional floats, even those that rarely
// repeat: in traces of multiclient runs, keeping viewing out changed the
// hit rate by under 1%, and keeping waited out lost more hits than it
// saved for the fields it evicts.
type floatMemo struct {
	t     floatText
	table [1 << memoBits]floatText
}

// appendFloatField appends `,"name":f` through the table unless f is
// zero (omitempty: -0 == 0 and is omitted, like encoding/json).
func (m *floatMemo) appendFloatField(b []byte, name string, f float64) []byte {
	if f == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return m.table[memoSlot(math.Float64bits(f))].appendFloat(b, f)
}

func appendIntField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// appendEvent appends ev exactly as json.Encoder.Encode would write it:
// one JSON object in struct field order with the tag-declared omitempty
// semantics, terminated by a newline. Every float must be finite.
func (m *floatMemo) appendEvent(b []byte, ev *Event) []byte {
	b = append(b, `{"t":`...)
	b = m.t.appendFloat(b, ev.T)
	b = append(b, `,"k":`...)
	b = appendJSONString(b, string(ev.Kind))
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, int64(ev.Client), 10)
	b = appendIntField(b, "round", int64(ev.Round))
	b = append(b, `,"page":`...)
	b = strconv.AppendInt(b, int64(ev.Page), 10)
	if ev.Demand {
		b = append(b, `,"demand":true`...)
	}
	b = m.appendFloatField(b, "prob", ev.Prob)
	b = m.appendFloatField(b, "service", ev.Service)
	b = m.appendFloatField(b, "waited", ev.Waited)
	b = m.appendFloatField(b, "access", ev.Access)
	b = m.appendFloatField(b, "viewing", ev.Viewing)
	b = m.appendFloatField(b, "lambda", ev.Lambda)
	b = m.appendFloatField(b, "l1", ev.L1)
	b = m.appendFloatField(b, "util", ev.Util)
	b = appendIntField(b, "replica", int64(ev.Replica))
	b = appendIntField(b, "queued", int64(ev.Queued))
	b = appendIntField(b, "qdemand", int64(ev.QueuedDemand))
	b = appendIntField(b, "inflight", int64(ev.InFlight))
	b = appendIntField(b, "attempt", int64(ev.Attempt))
	b = appendIntField(b, "cands", int64(ev.Cands))
	b = appendIntField(b, "dropped", ev.Dropped)
	b = appendIntField(b, "deferred", ev.Deferred)
	if ev.Note != "" {
		b = append(b, `,"note":`...)
		b = appendJSONString(b, ev.Note)
	}
	return append(b, '}', '\n')
}
