package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// oracleRunConfig is a seeded multiclient run in which every float field
// of Event occurs: priority with preemption (service lost on sq_preempt),
// an aimd controller (lambda, util), a learned predictor (l1, prob) and
// an admission gate that defers speculation (util on sq_defer).
func oracleRunConfig() multiclient.Config {
	cfg := multiclient.DefaultConfig()
	cfg.Clients, cfg.Rounds, cfg.ServerConcurrency, cfg.Seed = 16, 40, 4, 11
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true, AdmitUtil: 0.7, AdmitDefer: true}
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	return cfg
}

// tracedRun runs cfg into a Collector and a Writer at once and returns
// the collected events and the Writer's bytes.
func tracedRun(t *testing.T, cfg multiclient.Config) ([]obs.Event, []byte) {
	t.Helper()
	var col obs.Collector
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Tracer = obs.Multi{&col, w}
	if _, err := multiclient.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return col.Events, buf.Bytes()
}

// TestWriterMatchesEncoderWholeRun is the whole-run oracle for the
// Writer's float memo: over a run that uses every float field, the
// Writer's bytes equal json.Encoder's over the same events, and a fresh
// Writer on a second run writes the same bytes again.
func TestWriterMatchesEncoderWholeRun(t *testing.T) {
	evs, got := tracedRun(t, oracleRunConfig())
	seen := map[string]bool{}
	for _, ev := range evs {
		for name, f := range map[string]float64{"prob": ev.Prob, "service": ev.Service,
			"waited": ev.Waited, "access": ev.Access, "viewing": ev.Viewing,
			"lambda": ev.Lambda, "l1": ev.L1, "util": ev.Util} {
			if f != 0 {
				seen[name] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("the run sets only the float fields %v; it must set all eight", seen)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			t.Fatalf("json.Encoder: %v", err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d of %d:\n got %s\nwant %s", i+1, len(evs), gl[i], wl[i])
			}
		}
		t.Fatalf("Writer wrote %d bytes, json.Encoder %d", len(got), want.Len())
	}
	if _, again := tracedRun(t, oracleRunConfig()); !bytes.Equal(again, got) {
		t.Fatal("a second run through a fresh Writer wrote different bytes")
	}
}

// BenchmarkWriterEmit is the obs layer's tracked number: one op is one
// Emit of a recorded multiclient event stream (the mc-traced shape at a
// quarter of its clients) through NewWriter(io.Discard), cycling through
// the stream, so ns/op is also reported as ns/event. It fails if Emit
// allocates.
func BenchmarkWriterEmit(b *testing.B) {
	cfg := multiclient.DefaultConfig()
	cfg.Clients, cfg.Rounds, cfg.ServerConcurrency, cfg.Seed = 64, 60, 16, 8
	var col obs.Collector
	cfg.Tracer = &col
	if _, err := multiclient.Run(cfg); err != nil {
		b.Fatalf("Run: %v", err)
	}
	evs := col.Events
	w := obs.NewWriter(io.Discard)
	i := 0
	emit := func() {
		w.Emit(evs[i])
		if i++; i == len(evs) {
			i = 0
		}
	}
	if allocs := testing.AllocsPerRun(len(evs), emit); allocs != 0 {
		b.Fatalf("Emit allocates %v times per event, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		emit()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	if err := w.Flush(); err != nil {
		b.Fatalf("Flush: %v", err)
	}
}
