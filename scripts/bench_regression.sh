#!/usr/bin/env bash
# Perf regression gate over BENCH_explore.json artifacts.
#
#   scripts/bench_regression.sh PREV.json NEW.json
#
# Fails (exit 1) when:
#   * any binary's wall-clock in NEW exceeds 1.5x its PREV time (only
#     binaries taking >= 0.2 s are gated — sub-tenth-second timings are
#     timer noise, not signal);
#   * NEW's table4 off-chip branch-and-bound node count reaches the
#     Bell-number partition space of the retired exhaustive enumeration
#     (the search must prune, not enumerate) — checked even without a
#     PREV artifact;
#   * NEW's off-chip node count exceeds 1.5x PREV's (pruning regressed
#     against the cached baseline);
#   * NEW's scbd_cache block reports zero warm hits or nonzero warm
#     misses (the persistent cache stopped serving, or a warm cache is
#     incomplete for an unchanged binary) — self-contained, no PREV
#     needed;
#   * NEW's alloc_cache block reports zero warm hits or nonzero warm
#     misses (same invariant for the phase-2 allocation cache: a warm
#     run must short-circuit every branch-and-bound) — self-contained;
#   * NEW's serve block reports zero warm hits (the resident daemon's
#     shared cache stopped serving the second pass of an identical
#     batch) — self-contained;
#   * NEW's corpus block reports zero entries or zero warm hits (the
#     workload corpus vanished, or text-parsed specs stopped hashing
#     onto the cache keys of their Rust-built equivalents) —
#     self-contained.
#
# A missing PREV (first run, expired CI cache) skips the wall-clock
# comparison with a note instead of failing, so the gate bootstraps
# itself. A PREV without the table4_off_chip block skips only the
# off-chip vs-baseline comparison, again with a note.
set -euo pipefail

prev=${1:?usage: bench_regression.sh PREV.json NEW.json}
new=${2:?usage: bench_regression.sh PREV.json NEW.json}
max_ratio="1.5"
min_gated_seconds="0.2"

[ -f "$new" ] || { echo "bench-regression: missing $new" >&2; exit 1; }

# field FILE KEY -> first numeric value of "KEY": NUM in FILE
field() {
    sed -n "s/.*\"$2\": \([0-9][0-9.]*\).*/\1/p" "$1" | head -1
}

# block_field FILE BLOCK KEY -> the numeric value of "KEY": NUM inside
# the "BLOCK": { ... } object. Needed since v5: scbd_cache and
# alloc_cache share their key names, so the file-wide first match of
# field() would silently read the wrong block.
block_field() {
    awk -v blk="\"$2\":" -v key="\"$3\":" '
        !in_block && index($0, blk) { in_block = 1; next }
        in_block && index($0, key) && match($0, /[0-9][0-9.]*/) {
            print substr($0, RSTART, RLENGTH); exit
        }
        in_block && index($0, "}") { exit }
    ' "$1"
}

# seconds FILE BINARY -> the binary's "seconds" value
seconds() {
    awk -v bin="\"$2\"" '
        index($0, bin) && match($0, /"seconds": [0-9.]+/) {
            print substr($0, RSTART + 11, RLENGTH - 11); exit
        }' "$1"
}

fail=0

# --- Off-chip nodes invariant (self-contained: no PREV needed). -------
off_nodes=$(field "$new" bb_nodes)
off_exhaustive=$(field "$new" exhaustive_partitions)
if [ -n "$off_nodes" ] && [ -n "$off_exhaustive" ]; then
    # awk: the exhaustive counter can exceed bash's integer range on
    # huge off-chip instances (it saturates at 2^64 - 1).
    verdict=$(awk -v n="$off_nodes" -v e="$off_exhaustive" \
        'BEGIN { print (n + 0 < e + 0) ? "ok" : "inverted" }')
    if [ "$verdict" = "inverted" ]; then
        echo "bench-regression: FAIL off-chip bb nodes $off_nodes >= exhaustive partitions $off_exhaustive" >&2
        fail=1
    else
        echo "bench-regression: off-chip nodes ok ($off_nodes < exhaustive $off_exhaustive)"
    fi
else
    echo "bench-regression: FAIL $new lacks table4_off_chip counters" >&2
    fail=1
fi

# --- Persistent-cache invariants (self-contained), per entry kind. ----
for kind in scbd alloc; do
    warm_hits=$(block_field "$new" "${kind}_cache" warm_hits)
    warm_misses=$(block_field "$new" "${kind}_cache" warm_misses)
    if [ -n "$warm_hits" ] && [ -n "$warm_misses" ]; then
        if [ "$warm_hits" -eq 0 ]; then
            echo "bench-regression: FAIL warm $kind cache run served no hits" >&2
            fail=1
        elif [ "$warm_misses" -ne 0 ]; then
            echo "bench-regression: FAIL warm $kind cache run still missed $warm_misses times" >&2
            fail=1
        else
            echo "bench-regression: $kind cache ok (warm hits $warm_hits, misses 0)"
        fi
    else
        echo "bench-regression: FAIL $new lacks ${kind}_cache counters" >&2
        fail=1
    fi
done

# --- Resident-daemon cache invariant (self-contained). ----------------
serve_warm_hits=$(block_field "$new" serve warm_hits)
serve_rows=$(block_field "$new" serve rows_streamed)
if [ -n "$serve_warm_hits" ] && [ -n "$serve_rows" ]; then
    if [ "$serve_warm_hits" -eq 0 ]; then
        echo "bench-regression: FAIL resident daemon's warm pass served no cache hits" >&2
        fail=1
    else
        echo "bench-regression: serve ok (warm hits $serve_warm_hits, rows streamed $serve_rows)"
    fi
else
    echo "bench-regression: FAIL $new lacks serve counters" >&2
    fail=1
fi

# --- Workload-corpus invariant (self-contained). ----------------------
corpus_entries=$(block_field "$new" corpus entries)
corpus_warm_hits=$(block_field "$new" corpus warm_hits)
if [ -n "$corpus_entries" ] && [ -n "$corpus_warm_hits" ]; then
    if [ "$corpus_entries" -eq 0 ]; then
        echo "bench-regression: FAIL corpus run loaded no workloads" >&2
        fail=1
    elif [ "$corpus_warm_hits" -eq 0 ]; then
        echo "bench-regression: FAIL warm corpus run served no cache hits (text specs hash apart from Rust-built ones?)" >&2
        fail=1
    else
        echo "bench-regression: corpus ok ($corpus_entries entries, warm hits $corpus_warm_hits)"
    fi
else
    echo "bench-regression: FAIL $new lacks corpus counters" >&2
    fail=1
fi

# --- Off-chip nodes vs the previous artifact. -------------------------
if [ ! -f "$prev" ]; then
    : # the wall-clock section below prints the missing-baseline note
elif prev_off=$(field "$prev" bb_nodes) && [ -n "$prev_off" ]; then
    verdict=$(awk -v o="$prev_off" -v c="$off_nodes" -v r="$max_ratio" \
        'BEGIN { print (c + 0 > o * r) ? "regressed" : "ok" }')
    if [ "$verdict" = "regressed" ]; then
        echo "bench-regression: FAIL off-chip nodes $off_nodes > ${max_ratio}x previous $prev_off" >&2
        fail=1
    else
        echo "bench-regression: off-chip nodes vs baseline ok ($prev_off -> $off_nodes)"
    fi
else
    echo "bench-regression: previous artifact predates table4_off_chip (older schema); skipping off-chip baseline comparison"
fi

# --- Wall-clock comparison against the previous artifact. --------------
if [ ! -f "$prev" ]; then
    echo "bench-regression: no previous baseline ($prev); skipping wall-clock gate"
else
    for bin in table3_cycle_budget table4_allocation codec_rd_sweep; do
        old=$(seconds "$prev" "$bin")
        cur=$(seconds "$new" "$bin")
        if [ -z "$old" ] || [ -z "$cur" ]; then
            echo "bench-regression: $bin missing from an artifact; skipping"
            continue
        fi
        # Both samples must clear the noise floor: a sub-floor baseline
        # is itself timer noise and would make the ratio meaningless.
        verdict=$(awk -v o="$old" -v c="$cur" -v r="$max_ratio" -v m="$min_gated_seconds" \
            'BEGIN { print (c >= m && o >= m && c > o * r) ? "regressed" : "ok" }')
        if [ "$verdict" = "regressed" ]; then
            echo "bench-regression: FAIL $bin ${cur}s > ${max_ratio}x previous ${old}s" >&2
            fail=1
        else
            echo "bench-regression: $bin ok (${old}s -> ${cur}s)"
        fi
    done
fi

exit $fail
