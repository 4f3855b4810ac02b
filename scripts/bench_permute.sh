#!/usr/bin/env bash
# Regenerate BENCH_permute.json: crash-state permuter engine
# throughput on one canonical exhaustive crash point (cceh, asap_rp,
# 8 cores, 400 ops/thread, crash tick 268000 with drop-undo fault
# atoms: 17 atoms = 131072 reachable states, fully enumerated).
#
# Three engines over the identical state space:
#   naive        the pre-incremental loop: full image fingerprint and
#                a fresh log index per distinct image
#   incremental  Gray-code walk, XOR fingerprint, shared CheckerIndex,
#                delta-check scope
#   parallel     the incremental engine on 8 workers (on hosts with
#                few cores this adds overhead, not speedup — commit
#                the honest number anyway)
#
# Verdicts are bit-identical across engines (tests and
# scripts/check.sh enforce that); only host throughput varies. The
# committed file records the seed machine; regenerate on your own
# hardware with this script.
#
# Usage: scripts/bench_permute.sh [build_dir] [out_json]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-BENCH_permute.json}"
REPS="${ASAP_PERMUTE_BENCH_REPS:-3}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

unset ASAP_CACHE_DIR

POINT=(--repro --workload cceh --model asap --pm rp --cores 8
       --ops 400 --seed 1 --crash-tick 268000 --bound 131072
       --inject-fault drop-undo)

# run_engine <name> <extra args...>: best-of-REPS states/s, plus the
# verdict lines (rate excluded) for the cross-engine parity check.
run_engine() {
    local name="$1"
    shift
    local best_sps=0 best_ns=0 states=0
    for _ in $(seq "$REPS"); do
        "$BUILD/bench/crash_permute" "${POINT[@]}" "$@" \
            > "$TMP/$name.txt"
        local sps ms
        states=$(awk '/states checked/{print $3}' "$TMP/$name.txt")
        ms=$(awk -F'[( ]' '/check time/{print $5}' "$TMP/$name.txt")
        sps=$(grep -oE '\([0-9]+ states/s\)' "$TMP/$name.txt" |
              tr -dc '0-9')
        if [ "$sps" -gt "$best_sps" ]; then
            best_sps=$sps
            best_ns=$(awk -v ms="$ms" 'BEGIN{printf "%.0f", ms*1e6}')
        fi
    done
    grep -E 'verdict|states checked|inconsistent states' \
        "$TMP/$name.txt" > "$TMP/$name.verdict"
    printf '{ "engine": "%s", "statesChecked": %s, "bestNs": %s, "statesPerSec": %s }' \
        "$name" "$states" "$best_ns" "$best_sps"
}

ROW_NAIVE=$(run_engine naive --engine naive)
ROW_INC=$(run_engine incremental --engine incremental)
ROW_PAR=$(run_engine parallel --engine incremental --permute-jobs 8)

# Engines must agree on every verdict number.
cmp -s "$TMP/naive.verdict" "$TMP/incremental.verdict" ||
    { echo "bench_permute.sh: naive/incremental verdicts differ" >&2
      diff "$TMP/naive.verdict" "$TMP/incremental.verdict" >&2
      exit 1; }
cmp -s "$TMP/naive.verdict" "$TMP/parallel.verdict" ||
    { echo "bench_permute.sh: naive/parallel verdicts differ" >&2
      diff "$TMP/naive.verdict" "$TMP/parallel.verdict" >&2
      exit 1; }

NAIVE_SPS=$(echo "$ROW_NAIVE" | grep -oE '"statesPerSec": [0-9]+' |
            tr -dc '0-9')
INC_SPS=$(echo "$ROW_INC" | grep -oE '"statesPerSec": [0-9]+' |
          tr -dc '0-9')
SPEEDUP=$(awk -v a="$INC_SPS" -v b="$NAIVE_SPS" \
          'BEGIN{printf "%.1f", a/b}')

{
    printf '{\n'
    printf '  "bench": "permute-engines",\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "host": "%s",\n' "$(uname -sr)"
    printf '  "cpus": %s,\n' "$(nproc)"
    printf '  "point": "cceh asap_rp cores=8 ops=400 seed=1 tick=268000 drop-undo exhaustive 2^17",\n'
    printf '  "reps": %s,\n' "$REPS"
    printf '  "incrementalSpeedup": %s,\n' "$SPEEDUP"
    printf '  "rows": [\n'
    printf '    %s,\n' "$ROW_NAIVE"
    printf '    %s,\n' "$ROW_INC"
    printf '    %s\n' "$ROW_PAR"
    printf '  ]\n'
    printf '}\n'
} > "$OUT"

echo "bench_permute.sh: wrote $OUT (incremental ${SPEEDUP}x naive)"
cat "$TMP/naive.verdict"
