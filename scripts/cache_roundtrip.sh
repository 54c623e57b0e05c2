#!/usr/bin/env bash
# Roundtrip of the persistent evaluation cache over the whole smoke
# suite, anchored to an *uncached* reference run of the current
# binaries:
#
#   0. run every binary WITHOUT a cache — the reference stdout;
#   1. run the suite with MEMX_CACHE_DIR set (this pass may be served
#      from a cache carried across CI runs — diffing it against the
#      fresh uncached reference is exactly what catches *stale* entries
#      surviving a schedule- or allocation-affecting code change that
#      forgot to bump the cache revision; per-key staleness semantics —
#      a model-constant change must re-key every entry — are pinned by
#      the scbd_stale_key_misses / alloc_stale_key_misses unit tests);
#   2. run the suite again (warm): stdout must still match the
#      reference, every binary that schedules must report *nonzero
#      cache hits* on BOTH per-kind stat lines — schedules ([scbd
#      cache: ...]) and allocation solutions ([alloc cache: ...]) —
#      and EVERY binary must report *zero misses* on both lines: the
#      pass before it published everything a warm run reads;
#   3. corrupt EVERY entry on disk — both kinds: scbd/ and alloc/ —
#      alternating truncation and garbage, and re-run the full suite:
#      the binaries must degrade to recompute — exit 0, stdout
#      unchanged — repairing the entries in passing, which a final
#      per-kind hit-check proves.
#
# MEMX_CACHE_DIR may be supplied by the caller (CI persists it across
# workflow runs via actions/cache); otherwise a throwaway directory is
# used and removed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."

# shellcheck source=scripts/binaries.sh
source scripts/binaries.sh

# The binaries that run storage-cycle-budget distribution and must
# therefore *hit* on a warm cache. The others never schedule (their
# cache line always reads 0/0) and are only held to byte-identity.
SCHEDULING_BINARIES=(
    table1_structuring
    table2_hierarchy
    table3_cycle_budget
    table4_allocation
    fig1_methodology
    auto_hierarchy
    ablation_balancing
    memx-corpus
)

cargo build --release --package memx-bench --bins

export MEMX_SMOKE=1
throwaway_cache=""
if [ -n "${MEMX_CACHE_DIR:-}" ]; then
    mkdir -p "$MEMX_CACHE_DIR"
else
    MEMX_CACHE_DIR=$(mktemp -d)
    export MEMX_CACHE_DIR
    throwaway_cache=$MEMX_CACHE_DIR
fi
outdir=$(mktemp -d)
trap 'rm -rf "$outdir" $throwaway_cache' EXIT

# hits KIND STDERR-FILE -> the hits count of "[KIND cache: H hits / M misses]"
hits() {
    sed -n "s|^\\[$1 cache: \\([0-9]*\\) hits / [0-9]* misses\\]\$|\\1|p" "$2" | head -1
}

# misses KIND STDERR-FILE -> the misses count of the same line
misses() {
    sed -n "s|^\\[$1 cache: [0-9]* hits / \\([0-9]*\\) misses\\]\$|\\1|p" "$2" | head -1
}

# run_suite TAG [diff-reference-tag]  -> runs every binary, optionally
# diffing each stdout against a previous pass.
run_suite() {
    local tag=$1 ref=${2:-}
    local bin
    for bin in "${BINARIES[@]}"; do
        if ! "./target/release/$bin" >"$outdir/$bin.$tag" 2>"$outdir/$bin.$tag.err"; then
            echo "cache-roundtrip: FAIL $bin ($tag) exited non-zero" >&2
            status=1
            continue
        fi
        if [ -n "$ref" ]; then
            if diff -u "$outdir/$bin.$ref" "$outdir/$bin.$tag" >"$outdir/diff.txt"; then
                printf 'cache-roundtrip: %-28s %s == %s\n' "$bin" "$tag" "$ref"
            else
                echo "cache-roundtrip: FAIL $bin $tag stdout differs from $ref:" >&2
                cat "$outdir/diff.txt" >&2
                status=1
            fi
        fi
    done
}

status=0

echo "cache-roundtrip: cache dir $MEMX_CACHE_DIR"

# Pass 0: uncached reference (current binaries, no cache involved).
(
    unset MEMX_CACHE_DIR
    for bin in "${BINARIES[@]}"; do
        "./target/release/$bin" >"$outdir/$bin.uncached" 2>/dev/null ||
            { echo "cache-roundtrip: FAIL $bin (uncached) exited non-zero" >&2; exit 1; }
    done
) || status=1

# Pass 1: cached (cold, or warm from a CI-carried cache — either way it
# must match the uncached reference byte for byte).
run_suite cached uncached

# Pass 2: warm — byte-identity again, plus nonzero hits where it
# counts, per entry kind: the schedule cache AND the allocation cache
# must both serve every scheduling binary. No binary may miss on either
# kind: pass 1 published every entry a warm run reads.
run_suite warm uncached
for bin in "${BINARIES[@]}"; do
    for kind in scbd alloc; do
        missed=$(misses "$kind" "$outdir/$bin.warm.err")
        if [ "${missed:-missing line}" != 0 ]; then
            echo "cache-roundtrip: FAIL $bin missed the $kind cache on the warm run (got '${missed:-missing line}' misses)" >&2
            status=1
        fi
    done
done
for bin in "${SCHEDULING_BINARIES[@]}"; do
    hits=$(hits scbd "$outdir/$bin.warm.err")
    if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
        echo "cache-roundtrip: FAIL $bin reported no scbd cache hits on the warm run (got '${hits:-missing line}')" >&2
        status=1
    fi
    hits=$(hits alloc "$outdir/$bin.warm.err")
    if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
        echo "cache-roundtrip: FAIL $bin reported no alloc cache hits on the warm run (got '${hits:-missing line}')" >&2
        status=1
    fi
done

# Pass 3: corrupt EVERY entry of every kind (deterministic — every
# schedule and allocation read in the next pass sees a corrupt file), re-run the whole suite, and prove the entries were
# repaired in passing.
for kind in scbd alloc; do
    kind_entries=("$MEMX_CACHE_DIR/$kind"/*.bin)
    if [ ! -e "${kind_entries[0]}" ]; then
        echo "cache-roundtrip: FAIL no $kind cache entries were written" >&2
        status=1
    fi
done
entries=("$MEMX_CACHE_DIR"/{scbd,alloc}/*.bin)
if [ ! -e "${entries[0]}" ]; then
    echo "cache-roundtrip: FAIL no cache entries were written" >&2
    status=1
else
    i=0
    for entry in "${entries[@]}"; do
        # An empty kind leaves its unexpanded glob in the list (already
        # reported as a failure above); don't manufacture a file for it.
        if [ ! -e "$entry" ]; then continue; fi
        if [ $((i % 2)) -eq 0 ]; then
            head -c 10 "$entry" >"$entry.tmp" && mv "$entry.tmp" "$entry"
        else
            printf 'not a cache entry' >"$entry"
        fi
        i=$((i + 1))
    done
    echo "cache-roundtrip: corrupted all ${#entries[@]} entries (truncation/garbage alternating)"
    run_suite corrupted uncached
    # The corrupted pass recomputed and re-published every schedule and
    # allocation it read; a final run must therefore hit again, on both
    # gated kinds.
    "./target/release/table4_allocation" >/dev/null 2>"$outdir/repair.err"
    hits_after_repair=$(hits scbd "$outdir/repair.err")
    alloc_hits_after_repair=$(hits alloc "$outdir/repair.err")
    if [ -z "$hits_after_repair" ] || [ "$hits_after_repair" -eq 0 ]; then
        echo "cache-roundtrip: FAIL corrupted scbd entries were not repaired (table4 hits '$hits_after_repair')" >&2
        status=1
    elif [ -z "$alloc_hits_after_repair" ] || [ "$alloc_hits_after_repair" -eq 0 ]; then
        echo "cache-roundtrip: FAIL corrupted alloc entries were not repaired (table4 alloc hits '$alloc_hits_after_repair')" >&2
        status=1
    else
        echo "cache-roundtrip: corrupted entries repaired ($hits_after_repair scbd / $alloc_hits_after_repair alloc table4 hits after re-run)"
    fi
fi

exit $status
