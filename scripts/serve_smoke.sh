#!/bin/sh
# Smoke test for cmd/serve: boot the job server on an ephemeral port,
# submit a tiny measurement job over HTTP, poll it to completion, assert
# the report artifact is served with 200 and is non-empty, run a columnar
# job and require its dataset.jsonl download to equal its dataset.col
# download converted to JSONL with cmd/convert, then shut the server down
# with SIGINT and require a clean drain (exit 0).
#
# Usage: scripts/serve_smoke.sh [path-to-serve-binary] [path-to-convert-binary]
set -eu

BIN=${1:-./serve}
CONVERT=${2:-./convert}
WORKDIR=$(mktemp -d)
LOG="$WORKDIR/serve.log"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

"$BIN" -addr 127.0.0.1:0 -workers 2 >"$LOG" 2>&1 &
PID=$!

# The banner prints the bound address: "serving on http://127.0.0.1:PORT".
BASE=""
for _ in $(seq 1 100); do
    BASE=$(sed -n 's/^serving on \(http:\/\/[^ ]*\).*/\1/p' "$LOG" | head -n1)
    [ -n "$BASE" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "serve died at startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$BASE" ] || { echo "serve never printed its address:"; cat "$LOG"; exit 1; }

curl -fsS "$BASE/healthz" >/dev/null

# run_job SPEC submits a job spec, polls it until it is done, and prints
# its ID.
run_job() {
    submit=$(curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "$1" "$BASE/v1/jobs")
    job=$(printf '%s' "$submit" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    [ -n "$job" ] || { echo "submit returned no job id: $submit" >&2; exit 1; }
    state=""
    for _ in $(seq 1 300); do
        status=$(curl -fsS "$BASE/v1/jobs/$job")
        state=$(printf '%s' "$status" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case "$state" in
            done) break ;;
            failed|canceled) echo "job ended $state: $status" >&2; exit 1 ;;
        esac
        sleep 0.1
    done
    [ "$state" = "done" ] || { echo "job never finished (state '$state')" >&2; exit 1; }
    printf '%s\n' "$job"
}

JOB=$(run_job '{"seed": 3, "sites": 5, "pages_per_site": 2}')

# The report must come back 200 and non-empty (-f fails on non-2xx).
REPORT="$WORKDIR/report.txt"
curl -fsS "$BASE/v1/jobs/$JOB/report" -o "$REPORT"
[ -s "$REPORT" ] || { echo "report artifact is empty"; exit 1; }
grep -q "Table 2" "$REPORT" || { echo "report artifact looks wrong"; exit 1; }

# A columnar job serves both dataset encodings, and they hold the same
# visits: dataset.col converted to JSONL must equal dataset.jsonl byte for
# byte. dataset_format is not part of the cache key (every job holds its
# visits columnar), so this job resolves from the first job's result, and
# its own status must still list the dataset_col link its spec asks for.
COLJOB=$(run_job '{"seed": 3, "sites": 5, "pages_per_site": 2, "dataset_format": "col"}')
curl -fsS "$BASE/v1/jobs/$COLJOB" | grep -q '"dataset_col"' || {
    echo "columnar job lists no dataset_col artifact"; exit 1; }
curl -fsS "$BASE/v1/jobs/$COLJOB/dataset.col" -o "$WORKDIR/dataset.col"
curl -fsS "$BASE/v1/jobs/$COLJOB/dataset.jsonl" -o "$WORKDIR/dataset.jsonl"
[ -s "$WORKDIR/dataset.jsonl" ] || { echo "dataset.jsonl artifact is empty"; exit 1; }
"$CONVERT" -i "$WORKDIR/dataset.col" -o "$WORKDIR/converted.jsonl" -to jsonl
cmp -s "$WORKDIR/converted.jsonl" "$WORKDIR/dataset.jsonl" || {
    echo "dataset.col converted to JSONL differs from dataset.jsonl"; exit 1; }

# A resubmission of the identical spec must be a cache hit too: with the
# columnar job, two hits on /metrics.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"seed": 3, "sites": 5, "pages_per_site": 2}' "$BASE/v1/jobs" >/dev/null
curl -fsS "$BASE/metrics" -o "$WORKDIR/metrics.txt"
grep -q '^service_cache_hits 2$' "$WORKDIR/metrics.txt" || {
    echo "cache hits not visible on /metrics"; exit 1; }

kill -INT "$PID"
if ! wait "$PID"; then
    echo "serve exited non-zero on shutdown:"; cat "$LOG"; exit 1
fi
grep -q "drained cleanly" "$LOG" || { echo "no clean drain:"; cat "$LOG"; exit 1; }
echo "serve-smoke: OK ($BASE, job $JOB)"
