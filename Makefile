# Benchmark-regression tooling. `make bench` reruns the tracked
# benchmarks, records them as BENCH_<sha>.json and gates against the
# committed BENCH_baseline.json via cmd/benchjson (>25% slower on any
# tracked benchmark fails). `make bench-baseline` refreshes the baseline
# after an intentional performance change — commit the result.
#
# The gate compares absolute ns/op, so the baseline must come from the
# same class of machine that runs the gate: after the first green CI run
# on main, download its BENCH_<sha>.json artifact and commit it as
# BENCH_baseline.json so baseline and measurements share runner
# hardware. A baseline recorded on a developer laptop is only meaningful
# for local `make bench` runs.

GO ?= go
SHA := $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo dev)

# The tracked hot paths: the generic event-queue heap and netsim
# Clock's inline 4-ary event heap (BenchmarkClockChurn at 1k and 16k
# pending events; it runs ungated until the baseline is re-recorded,
# since cmd/benchjson passes benchmarks the baseline lacks), the scheduling
# subsystem's submit/dispatch/complete cycle and its completion cost at
# in-flight 64/1024/16384 (flat when completion is O(1)), promotion of a
# queued prefetch under fifo and priority at speculative backlogs of
# 64/1024/16384 over 64 clients (BenchmarkSchedulerPromote: Promote walks one
# client's list, not the backlog; ungated until the baseline is re-recorded, like
# BenchmarkClockChurn), one Snapshot
# against a utilisation window of 64/1024/16384 live busy segments
# (BenchmarkSnapshot: flat when the estimate is O(1); ungated until the
# baseline is re-recorded, like BenchmarkClockChurn), the end-to-end
# multiclient simulation round (the N-scaling family N=64…16384 over the
# sharded core, reporting ns/client-round, plus oracle/learned/drift
# variants and the traced and
# disabled-tracer variants that hold the observability layer's overhead
# — off must stay within noise of the untraced baseline), the learned
# predictors' observe/predict cycle, the plan-time prediction error in
# its map and dense forms, the shared oracle table's row sort at the
# default 120 and at 1,000 pages (BenchmarkRankProbs), a learned
# round's candidate path on rows recorded from a trained ppm-escape
# (BenchmarkChoose: the scoring pass, then the planner's filter and
# ranking against a held set), the cache's Contains, InsertLRU and
# victim at the client cache's shape (BenchmarkCache), Phase A whole at
# the mc-learned shape (BenchmarkGenerateScripts: prediction, truth
# rows, scoring and script storage; it, BenchmarkRankProbs,
# BenchmarkChoose and BenchmarkCache run ungated until the baseline is
# re-recorded, like BenchmarkClockChurn), the multi-replica fleet
# round (routing + failure injection overhead on top of the
# single-server round), and the obs layer's JSONL encoder on its own
# (BenchmarkWriterEmit: ns per event over a recorded multiclient
# stream, allocation-free). -benchmem feeds the allocation gate: cmd/benchjson fails any
# tracked benchmark whose allocs/op grows past its baseline.
BENCH_PATTERN := ^(BenchmarkEventQueue|BenchmarkClockChurn|BenchmarkSchedulerDequeue|BenchmarkSchedulerComplete|BenchmarkSchedulerPromote|BenchmarkSnapshot|BenchmarkMultiClientRound|BenchmarkMultiClientRoundLearned|BenchmarkMultiClientRoundDrift|BenchmarkMultiClientRoundTracerOff|BenchmarkMultiClientRoundTraced|BenchmarkPredictorObserve|BenchmarkPredictorObserveDecay|BenchmarkPlanL1|BenchmarkRankProbs|BenchmarkChoose|BenchmarkCache|BenchmarkGenerateScripts|BenchmarkFleetRound|BenchmarkWriterEmit)$$
BENCH_PKGS    := ./internal/eventq ./internal/netsim ./internal/schedsrv ./internal/multiclient ./internal/predict ./internal/fleet ./internal/obs ./internal/cache
BENCH_FLAGS   := -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 300ms -count 3

.PHONY: test lint lint-allows bench bench-raw bench-baseline clean-bench profile sweep-learned sweep-drift sweep-fleet trace

test: lint
	$(GO) build ./...
	$(GO) test ./...

# Determinism & config-hygiene invariants (internal/lint): build the
# simlint multichecker and run the full suite (see `bin/simlint -list`)
# over the tree. Violations are fixed or suppressed with a justified
# `//lint:allow <analyzer> <reason>` directive; every suppression must
# appear in the committed lint-allows.txt inventory (refresh it with
# `make lint-allows` and commit the diff), so adding an allow is a
# reviewable act, never a silent one.
#
# bin/simlint is a real file target rebuilt only when analyzer or
# driver sources change, keyed on the same file set CI's cache uses.
SIMLINT_SRC := $(shell find internal/lint cmd/simlint -name '*.go' -not -path '*/testdata/*') go.mod

bin/simlint: $(SIMLINT_SRC)
	$(GO) build -o $@ ./cmd/simlint

lint: bin/simlint
	bin/simlint ./...
	bin/simlint -show-allowed ./... | diff -u lint-allows.txt - \
		|| { echo "lint-allows.txt is stale: run 'make lint-allows' and commit the diff"; exit 1; }

# Refresh the committed suppression inventory after adding or removing
# a //lint:allow directive.
lint-allows: bin/simlint
	bin/simlint -show-allowed ./... > lint-allows.txt

# Always re-runs (phony): a stale bench-raw.txt must never satisfy the
# gate. The redirect (not a tee pipe) preserves go test's exit status,
# so a failing benchmark aborts make instead of producing a truncated
# record.
bench-raw:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) > bench-raw.txt
	@cat bench-raw.txt

bench: bench-raw
	$(GO) run ./cmd/benchjson -out BENCH_$(SHA).json -baseline BENCH_baseline.json \
		-note "make bench @ $(SHA)" < bench-raw.txt

bench-baseline: bench-raw
	$(GO) run ./cmd/benchjson -out BENCH_baseline.json -note "baseline @ $(SHA)" < bench-raw.txt

clean-bench:
	rm -f bench-raw.txt BENCH_*.json
	git checkout -- BENCH_baseline.json 2>/dev/null || true

# CPU + heap profiles of the heaviest tracked benchmark (the N=4096
# multiclient round over the sharded core), of Phase A alone
# (BenchmarkGenerateScripts at the mc-learned shape: prediction,
# scoring and script storage, which the N=4096 oracle round never
# reaches), of the routed path (BenchmarkFleetRound: routing,
# failures and per-round feedback, which a single-server round never
# reaches) and of the traced path (BenchmarkMultiClientRoundTraced:
# event construction and the JSONL encoder, which untraced rounds never
# reach), written to profile-out/ for pprof inspection; CI uploads
# the directory as an artifact so every main build ships a browsable
# profile of all four hot paths:
#
#	go tool pprof profile-out/multiclient.test profile-out/cpu.pprof
#	go tool pprof profile-out/multiclient.test profile-out/scripts.cpu.pprof
#	go tool pprof profile-out/fleet.test profile-out/fleet.cpu.pprof
#	go tool pprof profile-out/multiclient.test profile-out/traced.cpu.pprof
profile:
	rm -rf profile-out && mkdir -p profile-out
	$(GO) test -run '^$$' -bench '^BenchmarkMultiClientRound$$/N=4096' -benchtime 3x \
		-cpuprofile profile-out/cpu.pprof -memprofile profile-out/mem.pprof \
		-o profile-out/multiclient.test ./internal/multiclient | tee profile-out/bench.txt
	$(GO) tool pprof -top -nodecount 15 profile-out/multiclient.test profile-out/cpu.pprof \
		> profile-out/cpu.top.txt
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profile-out/multiclient.test profile-out/mem.pprof \
		> profile-out/mem.top.txt
	$(GO) test -run '^$$' -bench '^BenchmarkGenerateScripts$$' -benchtime 2s \
		-cpuprofile profile-out/scripts.cpu.pprof -memprofile profile-out/scripts.mem.pprof \
		-o profile-out/multiclient.test ./internal/multiclient | tee profile-out/scripts.bench.txt
	$(GO) tool pprof -top -nodecount 15 profile-out/multiclient.test profile-out/scripts.cpu.pprof \
		> profile-out/scripts.cpu.top.txt
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profile-out/multiclient.test profile-out/scripts.mem.pprof \
		> profile-out/scripts.mem.top.txt
	$(GO) test -run '^$$' -bench '^BenchmarkFleetRound$$' -benchtime 2s \
		-cpuprofile profile-out/fleet.cpu.pprof -memprofile profile-out/fleet.mem.pprof \
		-o profile-out/fleet.test ./internal/fleet | tee profile-out/fleet.bench.txt
	$(GO) tool pprof -top -nodecount 15 profile-out/fleet.test profile-out/fleet.cpu.pprof \
		> profile-out/fleet.cpu.top.txt
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profile-out/fleet.test profile-out/fleet.mem.pprof \
		> profile-out/fleet.mem.top.txt
	$(GO) test -run '^$$' -bench '^BenchmarkMultiClientRoundTraced$$' -benchtime 2s \
		-cpuprofile profile-out/traced.cpu.pprof -memprofile profile-out/traced.mem.pprof \
		-o profile-out/multiclient.test ./internal/multiclient | tee profile-out/traced.bench.txt
	$(GO) tool pprof -top -nodecount 15 profile-out/multiclient.test profile-out/traced.cpu.pprof \
		> profile-out/traced.cpu.top.txt
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profile-out/multiclient.test profile-out/traced.mem.pprof \
		> profile-out/traced.mem.top.txt
	@ls -l profile-out

# Sample observability bundle under trace-out/: a traced multiclient
# run (JSONL decision trace + metrics), the traceq report over it, and
# the Perfetto/chrome://tracing timeline. CI runs this and uploads the
# directory as an artifact, so every main build ships an inspectable
# trace of the reference configuration.
trace:
	rm -rf trace-out && mkdir -p trace-out
	$(GO) run ./cmd/prefetchsim -mode multiclient -clients 8 -rounds 120 \
		-discipline priority -controller aimd -predictor depgraph -seed 1 \
		-trace-out trace-out/run.jsonl -metrics-out trace-out/run.metrics.json
	$(GO) run ./cmd/traceq -chrome trace-out/run.chrome.json trace-out/run.jsonl \
		> trace-out/run.report.txt
	@cat trace-out/run.report.txt
	@ls -l trace-out

# Oracle-vs-learned gap report (examples/learned): predictor×controller
# tables with Pareto marks at N=16 under fifo and priority scheduling.
sweep-learned:
	$(GO) run ./examples/learned

# Non-stationary workload report (examples/drift): the same predictor
# sweep on a stationary and a drifting hot set, with the stationary
# predictor ranking inverting under drift.
sweep-drift:
	$(GO) run ./examples/drift

# Fleet report (examples/fleet): router × replica-count sweep with
# failure injection — availability, re-routed demand fetches and lost
# transfers per router under churn.
sweep-fleet:
	$(GO) run ./examples/fleet
