#!/usr/bin/env bash
# Times the exploration binaries and emits BENCH_explore.json so the
# engine's perf trajectory is tracked run over run (CI uploads it as an
# artifact and gates regressions with scripts/bench_regression.sh).
# Honors MEMX_SMOKE=1 for CI-sized inputs.
#
# The table4 allocation sweep is timed twice — fully serial
# (MEMX_WORKERS=1) and one worker per core (MEMX_WORKERS=0) — and the
# wall-clock speedup is reported (best of two runs each, to damp timer
# noise on sub-second binaries). The two runs print bit-identical
# tables; only the wall-clock differs, and only on multi-core hosts.
#
# The table4 branch-and-bound is additionally run once pinned serial
# with a raised node limit, recording the on-chip nodes-visited counter:
# with an unexhausted budget the node count measures pruning power.
#
# The same pinned-serial table4 run also records the *off-chip*
# branch-and-bound counters: nodes expanded versus the Bell-number
# partition space the retired exhaustive enumeration had to stream
# through. scripts/bench_regression.sh gates nodes < exhaustive.
#
# The v4 schema additionally records the persistent evaluation cache's
# hit/miss counters from a cold and a warm table3 run against a
# throwaway cache directory: scripts/bench_regression.sh gates
# warm_hits > 0 (the cache must actually serve) and warm_misses == 0
# (a warm cache must be complete for an unchanged binary).
#
# The v5 schema splits the counters per entry kind: the same cold/warm
# table3 pair also records the *allocation*-cache block (alloc_cache),
# gated identically — a warm run must short-circuit every phase-2
# branch-and-bound from the cache, not just every schedule.
#
# The v6 schema adds the symmetric-group dominance block: the table4
# sweep's dominance-cut counter, plus the plateau_dominance binary's
# off-chip node and cut counts (pinned serial). The instance is a pure
# tie plateau, so the lower bound alone prunes nothing there and the
# node count is what the dominance rule leaves of it.
#
# The v7 schema adds the resident-daemon block (serve): memx-serve is
# booted on loopback with a throwaway cache and driven through a cold
# and a warm demo batch by the scripted client; the block records the
# warm pass's cache hits (from the response trailers) plus the daemon's
# cumulative rows_streamed / rejected_requests counters (from
# /v1/stats). scripts/bench_regression.sh gates warm_hits > 0 — the
# resident cache must actually serve the second pass.
#
# The v8 schema adds the workload-corpus block (corpus): memx-corpus
# parses every corpus/*.mxspec entry through the textual front-end,
# proves the print/parse round-trip and evaluates each workload, run
# cold then warm against a throwaway cache. The block records the
# entry count plus the warm pass's scbd cache hits/misses;
# scripts/bench_regression.sh gates entries > 0 and warm_hits > 0 —
# text-loaded specs must hash onto the same cache keys as Rust-built
# ones, or the warm pass would miss.
#
# The v9 schema drops the retired search variants: table4_nodes keeps
# one on-chip count (the solo/pairwise pair is gone) and the dominance
# block one plateau run with the rule on (the without-rule count is
# gone).
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_explore.json}"
BINARIES=(table3_cycle_budget table4_allocation codec_rd_sweep)
# Unexhausted node budget for the node counts (see header).
NODES_LIMIT=100000000

cargo build --release --package memx-bench --package memx-serve --bins

now_ns() { date +%s%N; }

# run_secs BINARY [ENV=VAL...] -> wall-clock seconds on stdout
run_secs() {
    local bin=$1
    shift
    local start end
    start=$(now_ns)
    env "$@" "./target/release/$bin" >/dev/null 2>&1
    end=$(now_ns)
    awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f", (e - s) / 1e9 }'
}

# run_secs_best BINARY [ENV=VAL...] -> best of two runs
run_secs_best() {
    local a b
    a=$(run_secs "$@")
    b=$(run_secs "$@")
    awk -v a="$a" -v b="$b" 'BEGIN { printf "%.3f", (a < b) ? a : b }'
}

# stat_line STDERR LABEL -> the numeric value of "[LABEL: N]"
stat_line() {
    sed -n "s/^\[$2: \([0-9]*\)\]\$/\1/p" <<<"$1" | head -1
}

# cache_hits/cache_misses STDERR KIND -> the fields of
# "[KIND cache: H hits / M misses]" (KIND: scbd or alloc)
cache_hits() {
    sed -n "s|^\[$2 cache: \([0-9]*\) hits / [0-9]* misses\]\$|\1|p" <<<"$1" | head -1
}
cache_misses() {
    sed -n "s|^\[$2 cache: [0-9]* hits / \([0-9]*\) misses\]\$|\1|p" <<<"$1" | head -1
}

cores=$(nproc 2>/dev/null || echo 1)
smoke=false
if [ -n "${MEMX_SMOKE:-}" ] && [ "${MEMX_SMOKE}" != "0" ]; then
    smoke=true
fi

entries=""
for bin in "${BINARIES[@]}"; do
    secs=$(run_secs "$bin")
    printf 'bench: %-28s %ss\n' "$bin" "$secs"
    entries+=$(printf '    "%s": { "seconds": %s },' "$bin" "$secs")$'\n'
done

t4_serial=$(run_secs_best table4_allocation MEMX_WORKERS=1)
t4_parallel=$(run_secs_best table4_allocation MEMX_WORKERS=0)
speedup=$(awk -v s="$t4_serial" -v p="$t4_parallel" \
    'BEGIN { if (p > 0) printf "%.2f", s / p; else printf "1.00" }')
printf 'bench: table4 serial %ss / parallel %ss -> speedup %sx on %s core(s)\n' \
    "$t4_serial" "$t4_parallel" "$speedup" "$cores"

# Cold/warm cache counters (table3: the most cache-active binary —
# its crossover probe plus the sweep distribute dozens of schedules).
cache_dir=$(mktemp -d)
serve_dir=$(mktemp -d)
corpus_dir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$cache_dir" "$serve_dir" "$corpus_dir"
}
trap cleanup EXIT
stderr_cold=$(env MEMX_CACHE_DIR="$cache_dir" MEMX_WORKERS=1 \
    ./target/release/table3_cycle_budget 2>&1 >/dev/null)
stderr_warm=$(env MEMX_CACHE_DIR="$cache_dir" MEMX_WORKERS=1 \
    ./target/release/table3_cycle_budget 2>&1 >/dev/null)
cold_misses=$(cache_misses "$stderr_cold" scbd)
warm_hits=$(cache_hits "$stderr_warm" scbd)
warm_misses=$(cache_misses "$stderr_warm" scbd)
printf 'bench: scbd cache cold %s misses -> warm %s hits / %s misses\n' \
    "$cold_misses" "$warm_hits" "$warm_misses"
alloc_cold_misses=$(cache_misses "$stderr_cold" alloc)
alloc_warm_hits=$(cache_hits "$stderr_warm" alloc)
alloc_warm_misses=$(cache_misses "$stderr_warm" alloc)
printf 'bench: alloc cache cold %s misses -> warm %s hits / %s misses\n' \
    "$alloc_cold_misses" "$alloc_warm_hits" "$alloc_warm_misses"

# Pinned to one worker: parallel runs skip subtrees on thread timing, so
# only the serial node counters are deterministic enough to gate on.
stderr_table4=$(env MEMX_NODE_LIMIT="$NODES_LIMIT" MEMX_WORKERS=1 \
    ./target/release/table4_allocation 2>&1 >/dev/null)
nodes_on_chip=$(stat_line "$stderr_table4" "alloc nodes")
off_nodes=$(stat_line "$stderr_table4" "off-chip nodes")
off_exhaustive=$(stat_line "$stderr_table4" "off-chip exhaustive")
table4_cuts=$(stat_line "$stderr_table4" "off-chip dominance cuts")
printf 'bench: table4 on-chip nodes visited (exact search) %s\n' "$nodes_on_chip"
printf 'bench: table4 off-chip nodes %s vs exhaustive partitions %s\n' \
    "$off_nodes" "$off_exhaustive"
printf 'bench: table4 off-chip dominance cuts %s\n' "$table4_cuts"

# Tie-plateau dominance counters: the plateau_dominance binary, pinned
# serial.
stderr_plateau=$(env MEMX_WORKERS=1 \
    ./target/release/plateau_dominance 2>&1 >/dev/null)
plateau_nodes=$(stat_line "$stderr_plateau" "off-chip nodes")
plateau_cuts=$(stat_line "$stderr_plateau" "off-chip dominance cuts")
printf 'bench: plateau off-chip nodes %s (dominance cuts %s)\n' \
    "$plateau_nodes" "$plateau_cuts"

# Workload-corpus counters: cold/warm memx-corpus against a throwaway
# cache. The warm pass hitting proves text-parsed specs share content
# hashes (and so cache keys) with Rust-built ones.
stderr_corpus_cold=$(env MEMX_CACHE_DIR="$corpus_dir/cache" MEMX_WORKERS=1 \
    ./target/release/memx-corpus 2>&1 >/dev/null)
corpus_out=$(env MEMX_CACHE_DIR="$corpus_dir/cache" MEMX_WORKERS=1 \
    ./target/release/memx-corpus 2>"$corpus_dir/warm.err")
stderr_corpus_warm=$(cat "$corpus_dir/warm.err")
corpus_entries=$(sed -n 's/^corpus workloads: \([0-9]*\).*/\1/p' <<<"$corpus_out")
corpus_cold_misses=$(cache_misses "$stderr_corpus_cold" scbd)
corpus_warm_hits=$(cache_hits "$stderr_corpus_warm" scbd)
corpus_warm_misses=$(cache_misses "$stderr_corpus_warm" scbd)
printf 'bench: corpus %s entries, scbd cache cold %s misses -> warm %s hits / %s misses\n' \
    "$corpus_entries" "$corpus_cold_misses" "$corpus_warm_hits" "$corpus_warm_misses"

# Resident-daemon counters: boot memx-serve with a throwaway cache,
# drive the demo batch cold then warm, read the warm pass's cache-hit
# trailers and the daemon's cumulative /v1/stats counters.
./target/release/memx-serve --addr 127.0.0.1:0 \
    --cache-dir "$serve_dir/cache" > "$serve_dir/serve.log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 50); do
    serve_addr=$(sed -n 's/^memx-serve listening on //p' "$serve_dir/serve.log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
[ -n "$serve_addr" ] || { echo "bench: memx-serve never came up" >&2; exit 1; }
./target/release/serve_client demo > "$serve_dir/request.json"
./target/release/serve_client evaluate "$serve_addr" \
    < "$serve_dir/request.json" > /dev/null 2> "$serve_dir/cold.trailers"
./target/release/serve_client evaluate "$serve_addr" \
    < "$serve_dir/request.json" > /dev/null 2> "$serve_dir/warm.trailers"
serve_warm_hits=$(sed -n 's/^x-memx-cache-[a-z]*: \([0-9]*\) hits.*/\1/p' \
    "$serve_dir/warm.trailers" | awk '{ s += $1 } END { print s + 0 }')
sleep 0.2
serve_stats=$(./target/release/serve_client stats "$serve_addr")
serve_rows=$(sed -n 's/.*"rows_streamed":\([0-9]*\).*/\1/p' <<<"$serve_stats")
serve_rejected=$(sed -n 's/.*"rejected_requests":\([0-9]*\).*/\1/p' <<<"$serve_stats")
kill "$serve_pid" 2>/dev/null || true
serve_pid=""
printf 'bench: serve warm hits %s, rows streamed %s, rejected %s\n' \
    "$serve_warm_hits" "$serve_rows" "$serve_rejected"

cat > "$OUT" << EOF
{
  "schema": "memexplore-bench-v9",
  "generated_unix": $(date +%s),
  "smoke": $smoke,
  "cores": $cores,
  "binaries": {
${entries%,$'\n'}
  },
  "table4_speedup": {
    "serial_seconds": $t4_serial,
    "parallel_seconds": $t4_parallel,
    "speedup": $speedup,
    "workers": $cores
  },
  "table4_nodes": {
    "on_chip": $nodes_on_chip
  },
  "table4_off_chip": {
    "bb_nodes": $off_nodes,
    "exhaustive_partitions": $off_exhaustive
  },
  "dominance": {
    "table4_dominance_cuts": $table4_cuts,
    "plateau_nodes": $plateau_nodes,
    "plateau_cuts": $plateau_cuts
  },
  "scbd_cache": {
    "cold_misses": $cold_misses,
    "warm_hits": $warm_hits,
    "warm_misses": $warm_misses
  },
  "alloc_cache": {
    "cold_misses": $alloc_cold_misses,
    "warm_hits": $alloc_warm_hits,
    "warm_misses": $alloc_warm_misses
  },
  "serve": {
    "warm_hits": $serve_warm_hits,
    "rows_streamed": $serve_rows,
    "rejected_requests": $serve_rejected
  },
  "corpus": {
    "entries": $corpus_entries,
    "cold_misses": $corpus_cold_misses,
    "warm_hits": $corpus_warm_hits,
    "warm_misses": $corpus_warm_misses
  }
}
EOF
echo "wrote $OUT"
