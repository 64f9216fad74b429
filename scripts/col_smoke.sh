#!/bin/sh
# Smoke test for the columnar dataset path: crawl straight to the
# columnar format, round-trip it through JSONL with cmd/convert (must
# reproduce the columnar bytes exactly), and analyze both encodings,
# requiring byte-identical reports. Also asserts the size win and that
# cmd/analyze refuses a -format assertion that contradicts the magic
# bytes.
#
# Usage: scripts/col_smoke.sh [crawl-binary] [analyze-binary] [convert-binary]
set -eu

CRAWL=${1:-./crawl}
ANALYZE=${2:-./analyze}
CONVERT=${3:-./convert}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

"$CRAWL" -sites 5 -pages 2 -seed 7 -progress 0 -format col -o "$WORKDIR/ds.col" \
    2>"$WORKDIR/crawl.log"

# Lossless round trip: col -> jsonl -> col must reproduce the bytes.
"$CONVERT" -i "$WORKDIR/ds.col" -o "$WORKDIR/ds.jsonl" 2>/dev/null
"$CONVERT" -i "$WORKDIR/ds.jsonl" -o "$WORKDIR/ds2.col" 2>/dev/null
cmp -s "$WORKDIR/ds.col" "$WORKDIR/ds2.col" || {
    echo "col -> jsonl -> col round trip is not byte-identical"; exit 1; }

# The compact format must earn its name.
col_size=$(wc -c < "$WORKDIR/ds.col")
jsonl_size=$(wc -c < "$WORKDIR/ds.jsonl")
[ "$((col_size * 2))" -le "$jsonl_size" ] || {
    echo "columnar file ($col_size B) is not 2x smaller than JSONL ($jsonl_size B)"; exit 1; }

# Both encodings must analyze to the same report.
"$ANALYZE" -i "$WORKDIR/ds.jsonl" -sites 5 -pages 2 -seed 7 -progress 0 \
    >"$WORKDIR/report.jsonl.txt" 2>/dev/null
"$ANALYZE" -i "$WORKDIR/ds.col" -sites 5 -pages 2 -seed 7 -progress 0 \
    >"$WORKDIR/report.col.txt" 2>/dev/null
cmp -s "$WORKDIR/report.jsonl.txt" "$WORKDIR/report.col.txt" || {
    echo "reports differ between jsonl and col inputs"; exit 1; }

# A -format assertion contradicting the magic bytes must be refused.
if "$ANALYZE" -i "$WORKDIR/ds.jsonl" -format col -sites 5 -pages 2 -seed 7 \
    -progress 0 >/dev/null 2>&1; then
    echo "analyze accepted -format=col for a jsonl dataset"; exit 1
fi

echo "col-smoke: OK"
