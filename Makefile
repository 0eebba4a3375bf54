# Build, test and benchmark entry points. The bench targets feed the
# BENCH_*.json perf trajectory (see DESIGN.md §9 and cmd/benchjson).

GO ?= go

# bench pipes through tee; pipefail keeps a failing benchmark run fatal.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Substrate microbenchmarks: sampling, extraction, decoding, end-to-end
# LER. Override BENCH to select others, BENCHTIME/COUNT for precision
# (COUNT>=10 for benchstat-grade confidence intervals).
BENCH ?= FrameSampling|Extraction|LUTDecode|UnionFindDecodeSteady|PredecodedDecode|PipelineRunLowP|PipelineRunWorkers
BENCHTIME ?= 2s
COUNT ?= 1
BENCH_OUT ?= bench.txt
BENCH_JSON ?= bench.json

.PHONY: build test race cover fuzz serve bench bench-json bench-compare diff diff-long chaos chaos-long obs-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cover enforces the statement-coverage floors CI gates on (README
# "Contributing"): the statistics and allocation layers behind adaptive
# sweeps must stay ≥ $(COVER_FLOOR)% covered. The merged profile lands
# in coverage.out for the HTML viewer: go tool cover -html=coverage.out
COVER_FLOOR ?= 80
COVER_PKGS ?= ./internal/stats ./internal/sweep
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover "$$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }' \
			|| { echo "coverage floor violated: $$pkg at $$pct% < $(COVER_FLOOR)%"; exit 1; }; \
	done

# fuzz runs the grammar fuzzers for FUZZTIME each — the same smoke CI's
# lint job runs (30s there).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParseGrid -fuzztime $(FUZZTIME) ./internal/sweep

# serve starts the simulation service (HTTP job queue + content-addressed
# result store under SERVE_DATA). Submit work with `latticesim submit`
# or plain curl; see DESIGN.md §11.
SERVE_ADDR ?= 127.0.0.1:8642
SERVE_DATA ?= serve-data
serve:
	$(GO) run ./cmd/latticesim serve -addr $(SERVE_ADDR) -data $(SERVE_DATA)

# bench writes benchstat-friendly raw output to $(BENCH_OUT); compare
# against the committed PR-7 numbers with
#   benchstat bench_baseline_pr7.txt bench.txt
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | tee $(BENCH_OUT)

# bench-json converts the raw output into the machine-readable perf
# record (ns/op, allocs/op, shots/s per benchmark), with the committed
# baseline embedded for before/after comparison. By default it writes
# bench.json, which is not committed; record a new baseline epoch with
# an explicit BENCH_JSON=BENCH_prN.json (README "Contributing").
bench-json: bench
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -baseline bench_baseline_pr7.txt -out $(BENCH_JSON)

# bench-compare is the benchmark-regression gate CI runs: rerun the
# suite and fail when any shared benchmark's shots/s dropped more than
# TOLERANCE against the committed BASELINE_JSON (see README
# "Contributing" for how to refresh the baseline).
BASELINE_JSON ?= BENCH_pr7.json
TOLERANCE ?= 0.30
bench-compare: bench
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -compare $(BASELINE_JSON) -tolerance $(TOLERANCE) -out /dev/null

# diff runs the differential harness's randomized suite (fixed seeds,
# trimmed trial counts) under the race detector — the same job CI runs on
# every push — then repeats the predecoder's concurrent memo-fill test
# 20 times under it, since the detector only sees races that happen.
# diff-long removes -short for the full randomized sweep.
diff:
	$(GO) test -race -short -count 1 ./internal/testutil/diffharness
	$(GO) test -race -count=20 -run TestPredecoderConcurrentFill ./internal/decoder

diff-long:
	$(GO) test -race -count 1 -timeout 30m ./internal/testutil/diffharness

# chaos runs the service-layer fault-injection suite (DESIGN.md §14)
# under the race detector: CHAOS_SCHEDULES seed-derived fault plans
# (crashed/wedged workers, torn store writes, dropped connections,
# random cancels), each asserting that every job terminates, completed
# results stay byte-identical to a fault-free run, the queue leaks no
# slots, and every job and attempt span starts and ends exactly once.
# A failing schedule writes its replayable fault plan to
# CHAOS_ARTIFACT_DIR. It then repeats the fleet test five times: which
# unit the killed node holds, and which node re-leases it after expiry,
# depend on timing, and every interleaving must end each attempt span
# once. chaos-long is the full
# "hundreds of schedules" sweep; CI runs the short form on every push.
CHAOS_SCHEDULES ?= 60
CHAOS_ARTIFACT_DIR ?= chaos-artifacts
chaos:
	CHAOS_SCHEDULES=$(CHAOS_SCHEDULES) CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -count 1 -run 'TestChaos' ./internal/service
	$(GO) test -race -count=5 -run TestCampaignFleetDeterminism ./internal/worker

chaos-long:
	CHAOS_SCHEDULES=300 CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -count 1 -timeout 60m -run 'TestChaos' ./internal/service

# obs-smoke drives the observability surface (DESIGN.md §16) end to end
# against a real two-node fleet: /metrics mid-campaign, a SIGKILL-forced
# lease expiry, one trace ID across coordinator and node span sinks,
# the status dashboard, and pprof. CI runs it in the fleet-smoke job.
obs-smoke:
	./scripts/obs-smoke.sh

# loc counts the non-test Go lines outside e2ebench/, blank and
# comment-only lines excluded: the size figure a simplification reports
# before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './e2ebench/*' -print0 | xargs -0 cat | grep -cvE '^\s*($$|//)'
