# Build/verify targets. tier1 is the seed gate every PR must keep green;
# tier2 adds static vetting (go vet over every package, the job-server
# service included), the race detector over the concurrent pipeline
# (crawler clients, analysis worker pool, metrics, service queue), the
# serve-smoke end-to-end boot of cmd/serve, the trace-smoke validation of
# the span-trace exports, the per-package coverage floor (cover), and
# the benchmark harness's own vet and tests (bench-harness).

GO ?= go

.PHONY: all tier1 tier2 bench-harness bench bench-workers bench-service bench-throughput bench-json bench-dataset bench-crawl bench-smoke serve-smoke trace-smoke shard-smoke col-smoke load-smoke drift-smoke race-service race-crawl cover fuzz-smoke clean

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2: serve-smoke trace-smoke shard-smoke col-smoke load-smoke drift-smoke race-service race-crawl cover bench-smoke bench-harness
	$(GO) vet ./...
	$(GO) test -race -short ./...

# The benchmark harness (benchmark/, a module of its own) compiles against
# the program's public and layer APIs; vet and test it so an API change
# that breaks it fails here rather than only when the benchmark runs.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Race-harden the serving layer specifically: the autoscaling pool
# (grow/shrink/drain under concurrent submits and cancels), the scaler,
# and the load harness, at full length (-short elides the long soak).
race-service:
	$(GO) test -race -count=1 ./internal/service ./internal/service/scaler ./internal/loadgen

# Run the golden loadgen scenario twice and require byte-identical SLO
# reports, then drive a freshly booted autoscaling cmd/serve in live
# mode; see scripts/loadgen_smoke.sh.
load-smoke:
	$(GO) build -o ./load-smoke-gen ./cmd/loadgen
	$(GO) build -o ./load-smoke-serve ./cmd/serve
	sh scripts/loadgen_smoke.sh ./load-smoke-gen ./load-smoke-serve
	rm -f ./load-smoke-gen ./load-smoke-serve

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
	$(GO) test -run '^$$' -fuzz '^FuzzConfigParse$$' -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -run '^$$' -fuzz '^FuzzBaselineDecode$$' -fuzztime $(FUZZTIME) ./internal/drift

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
# comes back 200 + non-empty, and require a clean SIGINT drain.
serve-smoke:
	$(GO) build -o ./serve-smoke-bin ./cmd/serve
	sh scripts/serve_smoke.sh ./serve-smoke-bin
	rm -f ./serve-smoke-bin

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
# cmd/convert, and require byte-identical reports from both encodings
# (whole and sharded); see scripts/col_smoke.sh.
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

# Service load scenarios recorded as machine-readable JSON
# (BENCH_service.json) via the deterministic loadgen simulator — four
# seeded sim runs (steady poisson, burst autoscale, closed loop,
# overload), byte-reproducible across machines, shape-checked by
# TestBenchServiceJSONWellFormed. The wall-clock throughput benchmark
# remains available as `make bench-throughput`.
bench-service:
	sh scripts/bench_service.sh BENCH_service.json
	$(GO) test -run '^TestBenchServiceJSONWellFormed$$' .

# Job-server throughput (workers 1/4/8 × cache off/on), wall-clock.
bench-throughput:
	$(GO) test -run '^$$' -bench BenchmarkServiceThroughput -benchmem .

# Tree-diff hot-path benchmarks recorded as machine-readable JSON
# (BENCH_treediff.json), then shape-checked by TestBenchJSONWellFormed.
bench-json:
	sh scripts/bench_json.sh BENCH_treediff.json
	$(GO) test -run '^TestBenchJSONWellFormed$$' .

# Dataset-format measurements recorded as machine-readable JSON
# (BENCH_dataset.json): decode MB/s, load-and-analyze wall time, and
# peak RSS, JSONL vs columnar at 1x/4x/16x scale, each case in a fresh
# process; see cmd/benchdataset.
bench-dataset:
	sh scripts/bench_dataset.sh BENCH_dataset.json
	$(GO) test -run '^TestBenchDatasetJSONWellFormed$$' .

# Site-parallel crawl measurements recorded as machine-readable JSON
# (BENCH_crawl.json): wall time and peak RSS at site-worker counts
# 1/2/4/8, clean and heavy-fault, streaming vs a buffered baseline, each
# case in a fresh process; see cmd/benchcrawl.
bench-crawl:
	sh scripts/bench_crawl.sh BENCH_crawl.json
	$(GO) test -run '^TestBenchCrawlJSONWellFormed$$' .

# One iteration of every hot-path benchmark: catches benchmarks that no
# longer compile or panic, without paying for a full timed run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/treediff ./internal/stats

clean:
	$(GO) clean ./...
