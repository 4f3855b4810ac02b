#!/usr/bin/env bash
# Measure serving-scenario throughput and tail persist latency per
# model and write the result to BENCH_serve.json (committed as the
# seed machine's numbers; regenerate on your own hardware with this
# script).
#
# The interesting outputs are simulated quantities — sustained Mreq/s
# and the p50/p99/p999 persist-latency tail per model — which are
# deterministic for a fixed seed; host wall-clock and peak RSS ride
# along to witness that the streaming generator keeps a long run in
# constant memory.
#
# Usage: scripts/bench_serve.sh [build_dir] [out_json]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_serve.json}"
OPS="${ASAP_SERVE_BENCH_OPS:-5000}"
CORES="${ASAP_SERVE_BENCH_CORES:-8}"
SCENARIOS="${ASAP_SERVE_BENCH_SCENARIOS:-kv-zipf,tenant-mix}"
MODELS="${ASAP_SERVE_BENCH_MODELS:-baseline_rp,hops_rp,asap_rp,eadr_rp}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

unset ASAP_CACHE_DIR

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

T0=$(now_ms)
"$BUILD/bench/serve_bench" --ops "$OPS" --cores "$CORES" \
    --scenario "$SCENARIOS" --models "$MODELS" \
    --json "$TMP/serve.csv" > "$TMP/serve.txt" 2> "$TMP/serve.err"
T1=$(now_ms)
WALL_MS=$((T1 - T0))
RSS_KB="$(sed -n 's/^\[rss\] peak \([0-9]*\) KB$/\1/p' "$TMP/serve.err")"

# Fold the deterministic CSV rows into the artifact: one object per
# (scenario, model) with throughput and the tail columns.
ROWS="$(awk -F, '
    NR == 1 {
        for (i = 1; i <= NF; ++i) col[$i] = i
        next
    }
    {
        ticks = $col["runTicks"]; reqs = $col["serveRequests"]
        mreqs = ticks > 0 ? reqs / (ticks / 2.0e9) / 1.0e6 : 0
        printf "%s    {\"scenario\": \"%s\", \"model\": \"%s_%s\", ",
               (out++ ? ",\n" : ""), $col["workload"], $col["model"],
               $col["persistency"]
        printf "\"runTicks\": %s, \"requests\": %s, ", ticks, reqs
        printf "\"mreqPerSec\": %.3f, ", mreqs
        printf "\"persistP50Ticks\": %s, \"persistP99Ticks\": %s, ",
               $col["persistP50"], $col["persistP99"]
        printf "\"persistP999Ticks\": %s, \"persistMaxTicks\": %s}",
               $col["persistP999"], $col["persistMax"]
    }
' "$TMP/serve.csv")"

cat > "$OUT" <<EOF
{
  "bench": "serve-scenarios",
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host": "$(uname -sr)",
  "sweep": {
    "scenarios": "$SCENARIOS",
    "models": "$MODELS",
    "cores": $CORES,
    "requestsPerThread": $OPS
  },
  "wallMs": $WALL_MS,
  "peakRssKb": ${RSS_KB:-0},
  "results": [
$ROWS
  ]
}
EOF

echo "bench_serve.sh: $SCENARIOS x $MODELS in ${WALL_MS} ms," \
     "peak rss ${RSS_KB:-?} KB -> $OUT"
