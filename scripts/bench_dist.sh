#!/usr/bin/env bash
# Measure the sharded sweep (src/dist) against one process on the same
# host and write BENCH_dist.json: wall time of fig08_performance as
# one process at --jobs N against N concurrent `--shard i/N --claim`
# processes at --jobs 1 plus sweep_merge, in alternating pairs. Each
# sharded run starts from an empty cache directory; its merged CSV
# must equal the one-process CSV and report zero duplicate
# simulations, or the script fails.
#
# Usage: scripts/bench_dist.sh [build_dir] [out_json] [pairs]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_dist.json}"
PAIRS="${3:-10}"
OPS="${ASAP_DIST_BENCH_OPS:-200}"
N="$(nproc)"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
unset ASAP_CACHE_DIR

one() {
    local t0=$EPOCHREALTIME
    "$BUILD/bench/fig08_performance" --ops "$OPS" --jobs "$N" \
        --json "$TMP/one.csv" > /dev/null 2>&1
    python3 -c "print($EPOCHREALTIME - $t0)"
}

sharded() {
    local t0=$EPOCHREALTIME cache="$TMP/cache-$1"
    for ((i = 0; i < N; ++i)); do
        ASAP_CACHE_DIR="$cache" "$BUILD/bench/fig08_performance" \
            --ops "$OPS" --jobs 1 --shard "$i/$N" --claim \
            > /dev/null 2>&1 &
    done
    wait
    "$BUILD/bench/sweep_merge" --cache-dir "$cache" \
        --out "$TMP/merged.csv" 2> "$TMP/merge.txt"
    python3 -c "print($EPOCHREALTIME - $t0)"
    grep -q 'duplicate simulations: 0' "$TMP/merge.txt"
    cmp -s "$TMP/one.csv" "$TMP/merged.csv"
}

: > "$TMP/pairs"
for ((p = 1; p <= PAIRS; ++p)); do
    if ((p % 2)); then a=$(one); b=$(sharded "$p")
    else b=$(sharded "$p"); a=$(one); fi
    echo "$a $b" >> "$TMP/pairs"
done

python3 - "$TMP/pairs" "$OUT" "$N" "$OPS" "$PAIRS" <<'PY'
import json, platform, statistics, sys, time
path, out, n, ops, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3]), \
    sys.argv[4], int(sys.argv[5])
rows = [tuple(map(float, l.split())) for l in open(path)]
def summary(xs):
    q = statistics.quantiles(xs, n=4)
    return {"q1": round(q[0], 3), "median": round(statistics.median(xs), 3),
            "q3": round(q[2], 3), "runs": [round(x, 3) for x in xs]}
json.dump({
    "bench": "dist",
    "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "host": platform.system() + " " + platform.release(),
    "cpus": n,
    "command": f"fig08_performance --ops {ops}: one process at --jobs {n} "
               f"vs {n} x --shard i/{n} --claim at --jobs 1 + sweep_merge",
    "pairs": pairs,
    "order": "alternating (odd pairs one process first)",
    "wall_s": {"one_process": summary([a for a, _ in rows]),
               "sharded": summary([b for _, b in rows]),
               "shardedWins": sum(b < a for a, b in rows)},
}, open(out, "w"), indent=2)
open(out, "a").write("\n")
PY
cat "$OUT"
