package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/jsonl"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// malformedTraces are one-line traces ReadTrace must reject, each with a
// fragment its error must name. An input without a trailing newline is
// a truncated final line.
var malformedTraces = []struct {
	name, input, want string
}{
	{"unknown kind", `{"t":1,"k":"nope","c":0,"page":-1}` + "\n", "unknown kind"},
	{"unknown field", `{"t":1,"k":"round_end","c":0,"page":-1,"bogus":1}` + "\n", "bogus"},
	{"negative time", `{"t":-1,"k":"round_end","c":0,"page":-1}` + "\n", "round_end"},
	{"nan time", `{"t":1e999,"k":"round_end","c":0,"page":-1}` + "\n", "line 1"},
	{"bad client", `{"t":1,"k":"round_end","c":-2,"page":-1}` + "\n", "client -2"},
	{"bad page", `{"t":1,"k":"round_end","c":0,"page":-2}` + "\n", "page -2"},
	{"bad replica", `{"t":1,"k":"route","c":0,"page":3,"replica":-1}` + "\n", "replica -1"},
	{"line number", "{\"t\":1,\"k\":\"round_end\",\"c\":0,\"page\":-1}\n{\"t\":1,\"k\":\"nope\",\"c\":0,\"page\":-1}\n", "line 2"},
	{"truncated", `{"t":1,"k":"round_end","c":0,"pa`, "truncated"},
}

func TestReadTraceErrors(t *testing.T) {
	for _, tc := range malformedTraces {
		t.Run(tc.name, func(t *testing.T) {
			_, err := obs.ReadTrace(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// sampleRunTrace is the decision trace of a small seeded multiclient run
// on a preemptive priority server with an adaptive controller and a
// learned predictor, so most event kinds and fields occur.
func sampleRunTrace(f *testing.F) []byte {
	f.Helper()
	cfg := multiclient.DefaultConfig()
	cfg.Clients, cfg.Rounds, cfg.Seed = 3, 6, 7
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Tracer = w
	if _, err := multiclient.Run(cfg); err != nil {
		f.Fatalf("Run: %v", err)
	}
	if err := w.Flush(); err != nil {
		f.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadTrace: ReadTrace never panics on any input, and every trace it
// accepts survives a write through Writer and a second read unchanged.
func FuzzReadTrace(f *testing.F) {
	run := sampleRunTrace(f)
	f.Add(run)
	lines := bytes.SplitAfter(run, []byte("\n"))
	for _, n := range []int{1, 5, 20} {
		f.Add(bytes.Join(lines[:n], nil))
	}
	for _, tc := range malformedTraces {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Rewriting can grow a line several-fold (a string escape up to
		// sixfold, a float like 1e20 to 21 digits), so a longer accepted
		// line could legitimately exceed the reader's line bound.
		if len(data) > jsonl.MaxLineBytes/8 {
			return
		}
		evs, err := obs.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := obs.NewWriter(&buf)
		for _, ev := range evs {
			w.Emit(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("rewriting an accepted trace: %v", err)
		}
		back, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a rewritten trace: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("%d events read back, want %d", len(back), len(evs))
		}
		for i := range evs {
			if back[i] != evs[i] {
				t.Fatalf("event %d: read back %+v, want %+v", i, back[i], evs[i])
			}
		}
	})
}
