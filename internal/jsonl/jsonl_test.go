package jsonl_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"prefetch/internal/jsonl"
)

type row struct {
	A int     `json:"a"`
	B float64 `json:"b,omitempty"`
	S string  `json:"s,omitempty"`
}

func decodeAll(t *testing.T, input string) ([]row, error) {
	t.Helper()
	d := jsonl.NewDecoder(strings.NewReader(input))
	var out []row
	for {
		var r row
		err := d.Decode(&r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// wellFormed is a valid two-line input.
const wellFormed = "{\"a\":1}\n{\"a\":2,\"b\":0.5}\n"

func TestDecodeRoundTrip(t *testing.T) {
	rows, err := decodeAll(t, wellFormed)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rows) != 2 || rows[0].A != 1 || rows[1].B != 0.5 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	rows, err := decodeAll(t, "")
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty input: rows=%v err=%v", rows, err)
	}
}

// malformedInputs are inputs Decode must reject, each with a fragment
// its error must contain.
var malformedInputs = []struct {
	name, input, wantSub string
}{
	{"unknown field", "{\"a\":1}\n{\"a\":2,\"zz\":3}\n", "line 2"},
	{"truncated final line", "{\"a\":1}\n{\"a\":2", "truncated"},
	{"truncated mid-value", "{\"a\":1}\n{\"a\":\n", "line 2"},
	{"blank line", "{\"a\":1}\n\n{\"a\":2}\n", "blank line"},
	{"trailing data", "{\"a\":1} {\"a\":2}\n", "trailing data"},
	{"not json", "hello\n", "line 1"},
}

// Every malformed input fails with ErrBadLine and names the offending
// 1-based line.
func TestDecodeErrors(t *testing.T) {
	for _, tc := range malformedInputs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeAll(t, tc.input)
			if err == nil {
				t.Fatalf("decode(%q) succeeded, want error", tc.input)
			}
			if !errors.Is(err, jsonl.ErrBadLine) {
				t.Fatalf("error %v does not wrap ErrBadLine", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// After an error the decoder is sticky: further calls return the same
// error instead of resynchronising on damaged input.
func TestDecodeSticky(t *testing.T) {
	d := jsonl.NewDecoder(strings.NewReader("bad\n{\"a\":1}\n"))
	var r row
	err1 := d.Decode(&r)
	if err1 == nil {
		t.Fatal("first decode succeeded on bad input")
	}
	err2 := d.Decode(&r)
	if err2 != err1 {
		t.Fatalf("sticky error mismatch: %v vs %v", err1, err2)
	}
}

func TestDecodeLongLine(t *testing.T) {
	// A line over MaxLineBytes fails loudly instead of ballooning.
	input := "{\"a\":1,\"b\":" + strings.Repeat("1", jsonl.MaxLineBytes) + "}\n"
	_, err := decodeAll(t, input)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("long line: err = %v", err)
	}
}

// FuzzDecode: on any input Decode never panics, fails only with a sticky
// error wrapping ErrBadLine, consumes exactly one line per accepted
// value, and every value it accepts survives json.Marshal and a second
// strict decode unchanged. The seed corpus is this file's inputs.
func FuzzDecode(f *testing.F) {
	f.Add("")
	f.Add(wellFormed)
	for _, tc := range malformedInputs {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d := jsonl.NewDecoder(strings.NewReader(input))
		var rows []row
		for {
			var r row
			err := d.Decode(&r)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, jsonl.ErrBadLine) {
					t.Fatalf("error %v does not wrap ErrBadLine", err)
				}
				if again := d.Decode(&r); again != err {
					t.Fatalf("error not sticky: %v, then %v", err, again)
				}
				break
			}
			rows = append(rows, r)
			if d.Line() != len(rows) {
				t.Fatalf("Line() = %d after %d accepted values", d.Line(), len(rows))
			}
		}
		var buf bytes.Buffer
		for _, r := range rows {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("json.Marshal(%+v): %v", r, err)
			}
			buf.Write(append(b, '\n'))
		}
		back, err := decodeAll(t, buf.String())
		if err != nil {
			t.Fatalf("re-decoding accepted values: %v", err)
		}
		if len(back) != len(rows) {
			t.Fatalf("%d values read back, want %d", len(back), len(rows))
		}
		for i := range rows {
			if back[i] != rows[i] {
				t.Fatalf("value %d: read back %+v, want %+v", i, back[i], rows[i])
			}
		}
	})
}
