#!/usr/bin/env bash
# CI-style check: configure, build, run the test suite, then smoke a
# small parallel sweep through the exp engine and make sure its output
# is independent of the worker count.
#
# Usage: scripts/check.sh [build_dir]
#   ASAP_SANITIZE=thread scripts/check.sh build-tsan   # TSan vetting
#   ASAP_SANITIZE=address,undefined scripts/check.sh build-asan
#                                    # ASan + UBSan (UB fails the run)
set -euo pipefail

BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

CMAKE_ARGS=()
if [ -n "${ASAP_SANITIZE:-}" ]; then
    CMAKE_ARGS+=("-DASAP_SANITIZE=${ASAP_SANITIZE}")
fi

cmake -B "$BUILD" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

# Parallel-sweep smoke check: a real figure bench, 4 workers, and the
# determinism guarantee (stdout byte-identical to a serial run).
# A populated disk cache would change the (truthful) accounting line
# between the two runs, so keep it out of this comparison.
unset ASAP_CACHE_DIR
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BUILD/bench/fig08_performance" --jobs 4 --ops 50 \
    --json "$TMP/fig08.json" > "$TMP/fig08_par.txt"
"$BUILD/bench/fig08_performance" --jobs 1 --ops 50 \
    > "$TMP/fig08_ser.txt"
diff "$TMP/fig08_par.txt" "$TMP/fig08_ser.txt"
grep -q '"uniqueRuns"' "$TMP/fig08.json"

# Numeric flags fail loudly: a value with trailing junk is a usage
# error (exit 2), never silently read as its numeric prefix.
OPS_STATUS=0
"$BUILD/bench/fig08_performance" --ops 12x > /dev/null 2>&1 || OPS_STATUS=$?
[ "$OPS_STATUS" -eq 2 ]

# Quick crash-injection campaign: a handful of power-failure points
# through the checker. The bench exits non-zero (with a --repro line
# per failure) if any verdict is inconsistent, and under
# ASAP_SANITIZE=thread this doubles as a TSan pass over the verdict
# plumbing (crash jobs fan out across the pool like any sweep).
"$BUILD/bench/crash_campaign" --jobs 4 --ops 30 --ticks 5 \
    --workload cceh --json "$TMP/campaign.json" \
    | tee "$TMP/campaign.txt"
grep -q ' 0 inconsistent' "$TMP/campaign.txt"
grep -q '"kind": "crash"' "$TMP/campaign.json"

# Crash-state permuter smoke: every reachable post-crash state at each
# injection point, exhaustively (the bound is generous for 30-op
# runs), must pass the checker — the table asserts 100% coverage and
# 0 inconsistent, and the artifact carries the coverage columns.
# Small ops keep this sanitizer-compatible (ASAP_SANITIZE=address
# runs the full enumeration under ASan like any other bench).
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --json "$TMP/permute.json" \
    | tee "$TMP/permute.txt"
grep -q ' 0 inconsistent' "$TMP/permute.txt"
grep -qE '  100\.0 ' "$TMP/permute.txt"
! grep -q 'TRUNCATED' "$TMP/permute.txt"
grep -q '"kind": "permute"' "$TMP/permute.json"
grep -q '"statesChecked"' "$TMP/permute.json"

# Permuter engine parity: the naive (pre-incremental) check loop, the
# default incremental engine and the parallel path (8 segment workers)
# must report identical verdicts and coverage — stdout matches apart
# from the host-side states/s column of the coverage table, which is
# the one timing-dependent field. Under ASAP_SANITIZE=thread the
# --permute-jobs run doubles as the TSan pass over segment workers
# sharing one CheckerIndex and delta-check scope.
strip_rate() { sed -E 's/[[:space:]]+[0-9.]+$|[[:space:]]+-$//'; }
strip_rate < "$TMP/permute.txt" > "$TMP/engine_default.txt"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --engine naive | strip_rate \
    > "$TMP/engine_naive.txt"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --permute-jobs 8 | strip_rate \
    > "$TMP/engine_par.txt"
diff "$TMP/engine_default.txt" "$TMP/engine_naive.txt"
diff "$TMP/engine_default.txt" "$TMP/engine_par.txt"

# Sharded permute + merge audit: the permute sweep split over two
# shards on a shared cache must simulate every job exactly once
# (zero duplicates) and merge back to the single-host CSV artifact
# byte-for-byte, coverage columns included.
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --json "$TMP/permute_single.csv" > /dev/null
export ASAP_CACHE_DIR="$TMP/permute-cache"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --shard 0/2 --claim > "$TMP/permute0.txt"
"$BUILD/bench/crash_permute" --jobs 4 --ops 30 --ticks 6 \
    --workload cceh --shard 1/2 --claim > "$TMP/permute1.txt"
"$BUILD/bench/sweep_merge" --cache-dir "$ASAP_CACHE_DIR" \
    --out "$TMP/permute_merged.csv" 2> "$TMP/permute_merge.txt"
unset ASAP_CACHE_DIR
diff "$TMP/permute_single.csv" "$TMP/permute_merged.csv"
grep -q 'duplicate simulations: 0' "$TMP/permute_merge.txt"
grep -q ',statesChecked,statesReachable,' "$TMP/permute_merged.csv"

# Distributed-sweep smoke check: two shards over a shared cache
# directory (same host — the claim protocol only needs the shared
# filesystem), merged back and compared byte-for-byte against the
# single-host CSV artifact. The merge must also prove that no job was
# simulated twice. Under ASAP_SANITIZE=thread this exercises the lease
# heartbeat thread and the sharded engine path.
"$BUILD/bench/fig02_epochs" --jobs 4 --ops 40 \
    --json "$TMP/fig02_single.csv" > /dev/null
export ASAP_CACHE_DIR="$TMP/shard-cache"
"$BUILD/bench/fig02_epochs" --jobs 4 --ops 40 --shard 0/2 --claim \
    > "$TMP/shard0.txt"
"$BUILD/bench/fig02_epochs" --jobs 4 --ops 40 --shard 1/2 --claim \
    > "$TMP/shard1.txt"
"$BUILD/bench/sweep_merge" --cache-dir "$ASAP_CACHE_DIR" \
    --out "$TMP/fig02_merged.csv" 2> "$TMP/merge.txt"
unset ASAP_CACHE_DIR
diff "$TMP/fig02_single.csv" "$TMP/fig02_merged.csv"
grep -q 'duplicate simulations: 0' "$TMP/merge.txt"

# Media-model smoke check: two profiles through the media sweep (the
# non-default one exercises the bandwidth-cap queue and the media
# columns in the artifact), sharded across two workers over a shared
# cache, merged and audited for duplicate simulations. Small ops keep
# this TSan-compatible.
export ASAP_CACHE_DIR="$TMP/media-cache"
"$BUILD/bench/media_sweep" --jobs 4 --ops 30 --workload cceh \
    --profiles paper-table2,slow-nvm --shard 0/2 --claim \
    > "$TMP/media0.txt"
"$BUILD/bench/media_sweep" --jobs 4 --ops 30 --workload cceh \
    --profiles paper-table2,slow-nvm --shard 1/2 --claim \
    > "$TMP/media1.txt"
"$BUILD/bench/sweep_merge" --cache-dir "$ASAP_CACHE_DIR" \
    --out "$TMP/media_merged.csv" 2> "$TMP/media_merge.txt"
unset ASAP_CACHE_DIR
grep -q 'duplicate simulations: 0' "$TMP/media_merge.txt"
grep -q '^workload,.*,media,' "$TMP/media_merged.csv"
grep -q ',slow-nvm,' "$TMP/media_merged.csv"

# Kernel-throughput smoke: the bench must run and emit its artifact;
# the events/sec numbers are hardware-dependent and non-gating.
"$BUILD/bench/kernel_bench" --ops 60 --reps 1 \
    --json "$TMP/kernel.json" > /dev/null
grep -q '"kernel-chain"' "$TMP/kernel.json"

# Serving-scenario smoke: the streaming subsystem's guarantees, held
# the same way as everything above. Stdout must be byte-identical
# across worker counts, the CSV must carry the persist-latency tail
# columns, and a 10x-longer run must not grow peak RSS by more than
# 2x (the constant-memory claim — materialized traces would grow
# linearly). Small request counts keep this TSan-compatible.
"$BUILD/bench/serve_bench" --jobs 4 --ops 400 --cores 4 \
    --scenario kv-zipf,tenant-mix --json "$TMP/serve.csv" \
    > "$TMP/serve_par.txt"
"$BUILD/bench/serve_bench" --jobs 1 --ops 400 --cores 4 \
    --scenario kv-zipf,tenant-mix > "$TMP/serve_ser.txt"
diff "$TMP/serve_par.txt" "$TMP/serve_ser.txt"
grep -q 'persistP999' "$TMP/serve.csv"
grep -q '^serve:kv-zipf,' "$TMP/serve.csv"
# ASan's quarantine holds freed memory back (up to 256 MB), which
# grows RSS with the allocation count, so these two runs measure the
# program's own memory with the quarantine off (ignored without ASan).
RSS_ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}quarantine_size_mb=0"
ASAN_OPTIONS="$RSS_ASAN_OPTIONS" \
"$BUILD/bench/serve_bench" --jobs 1 --ops 1000 --cores 4 \
    --scenario kv-zipf --models asap_rp \
    > /dev/null 2> "$TMP/serve_rss_small.txt"
ASAN_OPTIONS="$RSS_ASAN_OPTIONS" \
"$BUILD/bench/serve_bench" --jobs 1 --ops 10000 --cores 4 \
    --scenario kv-zipf --models asap_rp \
    > /dev/null 2> "$TMP/serve_rss_big.txt"
RSS_SMALL="$(sed -n 's/^\[rss\] peak \([0-9]*\) KB$/\1/p' "$TMP/serve_rss_small.txt")"
RSS_BIG="$(sed -n 's/^\[rss\] peak \([0-9]*\) KB$/\1/p' "$TMP/serve_rss_big.txt")"
[ -n "$RSS_SMALL" ] && [ -n "$RSS_BIG" ]
[ "$RSS_BIG" -le "$((RSS_SMALL * 2))" ]

echo "check.sh: build, tests, parallel sweep, flag parsing, crash campaign, crash-state permuter, engine parity, sharded merge, media sweep, kernel bench and serving scenarios all passed"
