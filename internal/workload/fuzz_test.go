package workload

import (
	"bytes"
	"reflect"
	"testing"

	"prefetch/internal/access"
	"prefetch/internal/jsonl"
	"prefetch/internal/rng"
)

// FuzzReadTrace: ReadTrace never panics on any input, and every trace it
// accepts survives WriteTrace and a second read unchanged.
func FuzzReadTrace(f *testing.F) {
	rounds, err := Random(rng.New(3), Fig45Config(4, access.FlatGen{}), 8)
	if err != nil {
		f.Fatal(err)
	}
	var run bytes.Buffer
	if err := WriteTrace(&run, rounds); err != nil {
		f.Fatal(err)
	}
	f.Add(run.Bytes())
	f.Add([]byte(goodRoundLine + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"v":5,"p":[1.0],"r":[2],"req":3}` + "\n"))
	for _, tc := range strictTraceCases {
		f.Add([]byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Rewriting can grow a line several-fold (a float like 1e20 to 21
		// digits), so a longer accepted line could legitimately exceed
		// the reader's line bound.
		if len(data) > jsonl.MaxLineBytes/8 {
			return
		}
		rounds, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, rounds); err != nil {
			t.Fatalf("rewriting an accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a rewritten trace: %v", err)
		}
		if !reflect.DeepEqual(back, rounds) {
			t.Fatalf("read back %+v, want %+v", back, rounds)
		}
	})
}
