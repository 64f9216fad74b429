#!/bin/sh
# Smoke test for the distributed crawl: boot two shard worker servers and
# one coordinator pointed at them, submit the same tiny experiment once
# unsharded (on a worker) and once as a 2-shard coordinator job (each
# worker crawls one slice, the coordinator analyzes the union), and
# require the report/result.json/result.csv bytes to be identical — the
# end-to-end, multi-process form of the golden 1-vs-N determinism suite.
# Finally every server must drain cleanly on SIGINT.
#
# Usage: scripts/shard_smoke.sh [path-to-serve-binary]
set -eu

BIN=${1:-./serve}
WORKDIR=$(mktemp -d)
trap 'kill "$W1" "$W2" "$COORD" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

base_of() {
    log=$1; pid=$2
    base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/^serving on \(http:\/\/[^ ]*\).*/\1/p' "$log" | head -n1)
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "server died at startup:" >&2; cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "server never printed its address:" >&2; cat "$log" >&2; exit 1; }
    echo "$base"
}

# The servers must be direct children of this shell so `wait` can reap
# them — no command substitution around the boot.
"$BIN" -addr 127.0.0.1:0 -workers 2 >"$WORKDIR/worker1.log" 2>&1 &
W1=$!
"$BIN" -addr 127.0.0.1:0 -workers 2 >"$WORKDIR/worker2.log" 2>&1 &
W2=$!
W1BASE=$(base_of "$WORKDIR/worker1.log" "$W1")
W2BASE=$(base_of "$WORKDIR/worker2.log" "$W2")
"$BIN" -addr 127.0.0.1:0 -workers 2 -shard-workers "$W1BASE,$W2BASE" >"$WORKDIR/coord.log" 2>&1 &
COORD=$!
COORDBASE=$(base_of "$WORKDIR/coord.log" "$COORD")

# submit BASE SPEC — submit a job, poll it to done, echo the job id.
run_job() {
    base=$1; spec=$2
    submit=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" "$base/v1/jobs")
    job=$(printf '%s' "$submit" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    [ -n "$job" ] || { echo "submit returned no job id: $submit" >&2; exit 1; }
    state=""
    for _ in $(seq 1 600); do
        status=$(curl -fsS "$base/v1/jobs/$job")
        state=$(printf '%s' "$status" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case "$state" in
            done) break ;;
            failed|canceled) echo "job ended $state: $status" >&2; exit 1 ;;
        esac
        sleep 0.1
    done
    [ "$state" = "done" ] || { echo "job never finished (state '$state')" >&2; exit 1; }
    echo "$job"
}

# The same experiment, whole on worker 1 and sharded via the coordinator.
SINGLE=$(run_job "$W1BASE" '{"seed": 3, "sites": 5, "pages_per_site": 2}')
SHARDED=$(run_job "$COORDBASE" '{"seed": 3, "sites": 5, "pages_per_site": 2, "shards": 2}')

for art in report result.json result.csv; do
    curl -fsS "$W1BASE/v1/jobs/$SINGLE/$art" -o "$WORKDIR/single.$art"
    curl -fsS "$COORDBASE/v1/jobs/$SHARDED/$art" -o "$WORKDIR/sharded.$art"
    [ -s "$WORKDIR/single.$art" ] || { echo "$art is empty"; exit 1; }
    cmp -s "$WORKDIR/single.$art" "$WORKDIR/sharded.$art" || {
        echo "$art differs between 1 process and coordinator+2 workers"; exit 1; }
done

# The coordinator must actually have dispatched remotely, not fallen back.
curl -fsS "$COORDBASE/metrics" -o "$WORKDIR/metrics.txt"
grep -q '^service_shard_remote 2$' "$WORKDIR/metrics.txt" || {
    echo "coordinator did not dispatch both shards remotely:";
    grep '^service_shard' "$WORKDIR/metrics.txt" || true; exit 1; }

for pid in "$COORD" "$W1" "$W2"; do
    kill -INT "$pid"
    wait "$pid" || { echo "server $pid exited non-zero on shutdown"; exit 1; }
done
echo "shard-smoke: OK (coordinator $COORDBASE, workers $W1BASE $W2BASE)"
