# Build/verify targets. tier1 is the seed gate every PR must keep green;
# tier2 adds static vetting (go vet over every package, the job-server
# service included), the race detector over the concurrent pipeline
# (crawler clients, analysis worker pool, metrics, service queue), the
# serve-smoke end-to-end boot of cmd/serve, the trace-smoke validation of
# the span-trace exports, the per-package coverage floor (cover), the
# benchmark harness's own vet and tests (bench-harness), and the gofmt
# check over every tracked Go file (fmt-check).

GO ?= go

.PHONY: all tier1 tier2 fmt-check loc bench-harness bench bench-workers bench-throughput bench-smoke serve-smoke trace-smoke shard-smoke col-smoke drift-smoke race-service race-crawl cover fuzz-smoke clean

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2: fmt-check serve-smoke trace-smoke shard-smoke col-smoke drift-smoke race-service race-crawl cover bench-smoke bench-harness
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Fail, listing the files, when any tracked Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Non-test Go lines outside benchmark/: the size figure each change
# reports next to its benchmark result (see ROADMAP.md).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l

# The benchmark harness (benchmark/, a module of its own) compiles against
# the program's public and layer APIs; vet and test it so an API change
# that breaks it fails here rather than only when the benchmark runs.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Race-harden the serving layer specifically: the job pool (submits and
# cancels racing a drain), the result cache and the monitor loop, at full
# length (-short elides the long soak).
race-service:
	$(GO) test -race -count=1 ./internal/service

# Race-harden the site-parallel crawl pool at full length: worker
# submit/cancel/drain, the reorder sequencer, and the scratch-state merge
# under concurrent site completions.
race-crawl:
	$(GO) test -race -count=1 ./internal/crawler

# Per-package coverage floor (default 80%) over the packages the fault
# injection and analysis correctness lean on; see scripts/cover_gate.sh.
cover:
	sh scripts/cover_gate.sh 80

# Short native-fuzzing smoke over every fuzz target: a few seconds each of
# coverage-guided input generation on top of the committed seeds.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime $(FUZZTIME) ./internal/urlutil
	$(GO) test -run '^$$' -fuzz '^FuzzSite$$' -fuzztime $(FUZZTIME) ./internal/urlutil
	$(GO) test -run '^$$' -fuzz '^FuzzKeyCache$$' -fuzztime $(FUZZTIME) ./internal/urlutil
	$(GO) test -run '^$$' -fuzz '^FuzzParseLinks$$' -fuzztime $(FUZZTIME) ./internal/linkextract
	$(GO) test -run '^$$' -fuzz '^FuzzRedirectChain$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzShardPlanPartition$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzColBlockDecode$$' -fuzztime $(FUZZTIME) ./internal/colstore
	$(GO) test -run '^$$' -fuzz '^FuzzSpecCanonical$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzBaselineDecode$$' -fuzztime $(FUZZTIME) ./internal/drift
	$(GO) test -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime $(FUZZTIME) ./internal/filterlist
	$(GO) test -run '^$$' -fuzz '^FuzzListMatch$$' -fuzztime $(FUZZTIME) ./internal/filterlist
	$(GO) test -run '^$$' -fuzz '^FuzzSortedMerge$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzParseSetCookie$$' -fuzztime $(FUZZTIME) ./internal/cookies

# Crawl with -trace, validate the Chrome trace-event export with
# cmd/tracecheck (shape + per-stage span coverage), and require the trace
# bytes to be reproducible; see scripts/trace_smoke.sh.
trace-smoke:
	$(GO) build -o ./trace-smoke-crawl ./cmd/crawl
	$(GO) build -o ./trace-smoke-analyze ./cmd/analyze
	$(GO) build -o ./trace-smoke-check ./cmd/tracecheck
	sh scripts/trace_smoke.sh ./trace-smoke-crawl ./trace-smoke-analyze ./trace-smoke-check
	rm -f ./trace-smoke-crawl ./trace-smoke-analyze ./trace-smoke-check

# Boot the job server, submit a job over HTTP, assert the report artifact
# comes back 200 + non-empty, require a columnar job's dataset.jsonl to
# equal its dataset.col converted by cmd/convert, and require a clean
# SIGINT drain.
serve-smoke:
	$(GO) build -o ./serve-smoke-bin ./cmd/serve
	$(GO) build -o ./serve-smoke-convert ./cmd/convert
	sh scripts/serve_smoke.sh ./serve-smoke-bin ./serve-smoke-convert
	rm -f ./serve-smoke-bin ./serve-smoke-convert

# Boot cmd/serve in monitor mode for 3 epochs, wait for the drift
# schedule to finish via /debug/drift, assert the state directory holds
# the full baseline/delta/csv/report set, and diff the alert JSONL
# against the committed golden; see scripts/drift_smoke.sh.
drift-smoke:
	$(GO) build -o ./drift-smoke-bin ./cmd/serve
	sh scripts/drift_smoke.sh ./drift-smoke-bin
	rm -f ./drift-smoke-bin

# Boot a coordinator plus two shard workers as separate processes, run the
# same experiment whole and sharded, and require byte-identical artifacts;
# see scripts/shard_smoke.sh.
shard-smoke:
	$(GO) build -o ./shard-smoke-bin ./cmd/serve
	sh scripts/shard_smoke.sh ./shard-smoke-bin
	rm -f ./shard-smoke-bin

# Crawl to the columnar format, round-trip it through JSONL with
# cmd/convert, and require byte-identical reports from both encodings;
# see scripts/col_smoke.sh.
col-smoke:
	$(GO) build -o ./col-smoke-crawl ./cmd/crawl
	$(GO) build -o ./col-smoke-analyze ./cmd/analyze
	$(GO) build -o ./col-smoke-convert ./cmd/convert
	sh scripts/col_smoke.sh ./col-smoke-crawl ./col-smoke-analyze ./col-smoke-convert
	rm -f ./col-smoke-crawl ./col-smoke-analyze ./col-smoke-convert

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The parallel-analysis speedup trajectory (workers 1/4/8).
bench-workers:
	$(GO) test -run '^$$' -bench BenchmarkAnalysisWorkers -benchmem .

# Job-server throughput (workers 1/4/8 × cache off/on), wall-clock.
bench-throughput:
	$(GO) test -run '^$$' -bench BenchmarkServiceThroughput -benchmem .

# One iteration of every hot-path benchmark: catches benchmarks that no
# longer compile or panic, without paying for a full timed run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/treediff ./internal/stats ./internal/filterlist ./internal/tree

clean:
	$(GO) clean ./...
