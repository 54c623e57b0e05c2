#!/usr/bin/env bash
# Sharded design-space sweep: partitions the paper-reproduction suite by
# binary index across N concurrent processes that share ONE persistent
# evaluation cache directory, then merges the per-shard outputs back
# into suite order and proves the merge is byte-identical to a plain
# 1-process run.
#
#   scripts/sharded_sweep.sh [SHARDS]      (default: 2)
#
# Three passes:
#
#   0. reference — every binary once, single process, NO cache: the
#      stdout a sharded run must reproduce exactly;
#   1. cold      — N background shards (shard s runs the binaries whose
#      index satisfies index % N == s) against the shared store, filling
#      scbd/alloc entries concurrently (the atomic-rename
#      discipline is what makes one directory safe to share);
#   2. warm      — same shards again: merged stdout must still match the
#      reference, and every shard must report nonzero *allocation*-cache
#      hits on its stderr, proving phase-2 short-circuiting works under
#      sharding, not just single-process.
#
# Each warm shard also emits a BENCH_shard<s>.json fragment (per-binary
# wall-clock + the shard's alloc-cache warm counters); the fragments are
# merged into BENCH_sharded.json in shard order. Merge semantics are
# deliberately dumb: fragments are disjoint by construction (a binary
# belongs to exactly one shard), so the merge is pure concatenation — no
# counter is ever summed across shards.
#
# MEMX_SWEEP_CACHE_DIR may point at a persistent store (CI passes the
# actions-cache-carried .memx-cache); otherwise a throwaway directory is
# used and removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."

# shellcheck source=scripts/binaries.sh
source scripts/binaries.sh

shards=${1:-2}
if [ "$shards" -lt 1 ] || [ "$shards" -gt "${#BINARIES[@]}" ]; then
    echo "sharded-sweep: SHARDS must be in 1..${#BINARIES[@]} (got $shards)" >&2
    exit 1
fi

cargo build --release --package memx-bench --bins

export MEMX_SMOKE=1
throwaway_cache=""
if [ -n "${MEMX_SWEEP_CACHE_DIR:-}" ]; then
    cachedir=$MEMX_SWEEP_CACHE_DIR
    mkdir -p "$cachedir"
else
    cachedir=$(mktemp -d)
    throwaway_cache=$cachedir
fi
outdir=$(mktemp -d)
trap 'rm -rf "$outdir" $throwaway_cache' EXIT

now_ns() { date +%s%N; }

# alloc_hits STDERR-FILE -> the hits count of "[alloc cache: H hits / M misses]"
alloc_hits() {
    sed -n 's|^\[alloc cache: \([0-9]*\) hits / [0-9]* misses\]$|\1|p' "$1" | head -1
}

# run_shard PASS SHARD -> runs this shard's slice of the suite against
# the shared cache; on the warm pass, also writes the shard's BENCH
# fragment. Runs in a background subshell — failures surface via a
# marker file because a backgrounded exit status alone is easy to lose.
run_shard() {
    local pass=$1 shard=$2
    local idx=0 bin started secs entries="" hits shard_hits=0
    for bin in "${BINARIES[@]}"; do
        if [ $((idx % shards)) -eq "$shard" ]; then
            started=$(now_ns)
            if ! MEMX_CACHE_DIR=$cachedir "./target/release/$bin" \
                >"$outdir/$bin.$pass" 2>"$outdir/$bin.$pass.err"; then
                echo "sharded-sweep: FAIL $bin ($pass, shard $shard) exited non-zero" >&2
                touch "$outdir/failed.$pass.$shard"
                return 1
            fi
            secs=$(awk -v s="$started" -v e="$(now_ns)" \
                'BEGIN { printf "%.3f", (e - s) / 1e9 }')
            entries+=$(printf '      "%s": { "seconds": %s },' "$bin" "$secs")$'\n'
            if [ "$pass" = warm ]; then
                hits=$(alloc_hits "$outdir/$bin.$pass.err")
                shard_hits=$((shard_hits + ${hits:-0}))
            fi
        fi
        idx=$((idx + 1))
    done
    if [ "$pass" = warm ]; then
        cat > "$outdir/BENCH_shard$shard.json" << EOF
    {
      "shard": $shard,
      "binaries": {
${entries%,$'\n'}
      },
      "alloc_cache": { "warm_hits": $shard_hits }
    }
EOF
    fi
}

# merge PASS -> the shard stdouts concatenated back into suite order
# (the canonical BINARIES order, which is what a 1-process run prints).
merge() {
    local pass=$1 bin
    for bin in "${BINARIES[@]}"; do
        cat "$outdir/$bin.$pass"
    done
}

status=0
echo "sharded-sweep: $shards shards over ${#BINARIES[@]} binaries, cache $cachedir"

# Pass 0: 1-process uncached reference.
for bin in "${BINARIES[@]}"; do
    "./target/release/$bin" >"$outdir/$bin.ref" 2>/dev/null ||
        { echo "sharded-sweep: FAIL $bin (reference) exited non-zero" >&2; exit 1; }
done
merge ref >"$outdir/merged.ref"

# Passes 1 (cold) and 2 (warm): N concurrent shards, one shared store.
for pass in cold warm; do
    for shard in $(seq 0 $((shards - 1))); do
        run_shard "$pass" "$shard" &
    done
    wait
    for shard in $(seq 0 $((shards - 1))); do
        if [ -e "$outdir/failed.$pass.$shard" ]; then status=1; fi
    done
    if [ "$status" -ne 0 ]; then exit "$status"; fi
    merge "$pass" >"$outdir/merged.$pass"
    if diff -u "$outdir/merged.ref" "$outdir/merged.$pass" >"$outdir/diff.txt"; then
        echo "sharded-sweep: $pass merge == 1-process reference (byte-identical)"
    else
        echo "sharded-sweep: FAIL $pass merge differs from the 1-process reference:" >&2
        cat "$outdir/diff.txt" >&2
        status=1
    fi
done

# Every warm shard must have been served from the allocation cache.
for shard in $(seq 0 $((shards - 1))); do
    hits=$(sed -n 's/.*"warm_hits": \([0-9]*\).*/\1/p' "$outdir/BENCH_shard$shard.json" | head -1)
    if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
        echo "sharded-sweep: FAIL shard $shard reported no alloc-cache hits on the warm pass" >&2
        status=1
    else
        echo "sharded-sweep: shard $shard warm alloc-cache hits: $hits"
    fi
done

# Merge the per-shard BENCH fragments (disjoint by construction).
{
    printf '{\n  "schema": "memexplore-sharded-sweep-v1",\n'
    printf '  "shards": %s,\n  "merged": [\n' "$shards"
    for shard in $(seq 0 $((shards - 1))); do
        cat "$outdir/BENCH_shard$shard.json"
        if [ "$shard" -lt $((shards - 1)) ]; then printf ',\n'; fi
    done
    printf '  ]\n}\n'
} > BENCH_sharded.json
echo "sharded-sweep: wrote BENCH_sharded.json"

exit $status
