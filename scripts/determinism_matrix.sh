#!/usr/bin/env bash
# Determinism matrix over the paper-reproduction binaries: runs the
# whole smoke suite under MEMX_WORKERS in {1, 2, 8} and diffs stdout
# against the fully-serial run. The solver's
# bit-identical-per-worker-count guarantee is thereby enforced
# end-to-end in CI, not only in unit tests.
#
# Stdout only: stderr carries the worker-count banner and (in parallel
# runs) timing-dependent node counters, which are documented as
# non-deterministic.
#
# The persistent evaluation cache is folded into the same matrix: every
# workers cell is re-run with MEMX_CACHE_DIR pointing at one shared
# cache directory, and the cached stdout must diff clean against the
# uncached run of the same cell. The shared directory is *cold* for
# the first cell and warm for every later one, so both fill and serve
# paths are pinned to byte-identity end-to-end — for both entry kinds:
# a warm cell's schedules come from the scbd cache and its allocations
# are served whole from the alloc cache (keyed without the worker
# count, exactly because this matrix holds), short-circuiting the
# phase-2 branch-and-bound the uncached cell ran.
set -euo pipefail

cd "$(dirname "$0")/.."

# shellcheck source=scripts/binaries.sh
source scripts/binaries.sh

cargo build --release --package memx-bench --bins

export MEMX_SMOKE=1
outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT

status=0
for workers in 1 2 8; do
    for bin in "${BINARIES[@]}"; do
        if ! MEMX_WORKERS=$workers \
            "./target/release/$bin" >"$outdir/$bin.$workers" 2>/dev/null; then
            echo "determinism: FAIL $bin (workers=$workers) exited non-zero" >&2
            status=1
        fi
    done
done
for workers in 2 8; do
    for bin in "${BINARIES[@]}"; do
        if diff -u "$outdir/$bin.1" "$outdir/$bin.$workers" >"$outdir/diff.txt"; then
            printf 'determinism: %-28s workers=%s == serial\n' "$bin" "$workers"
        else
            echo "determinism: FAIL $bin differs between workers=1 and workers=$workers:" >&2
            cat "$outdir/diff.txt" >&2
            status=1
        fi
    done
done

# --- cached vs uncached: same matrix, one shared cache directory. ------
cachedir="$outdir/evalcache"
for workers in 1 2 8; do
    for bin in "${BINARIES[@]}"; do
        if ! MEMX_WORKERS=$workers MEMX_CACHE_DIR=$cachedir \
            "./target/release/$bin" >"$outdir/$bin.$workers.cached" 2>/dev/null; then
            echo "determinism: FAIL $bin (workers=$workers cached) exited non-zero" >&2
            status=1
            continue
        fi
        if diff -u "$outdir/$bin.$workers" "$outdir/$bin.$workers.cached" \
            >"$outdir/diff.txt"; then
            printf 'determinism: %-28s workers=%s cached == uncached\n' "$bin" "$workers"
        else
            echo "determinism: FAIL $bin (workers=$workers) cached differs from uncached:" >&2
            cat "$outdir/diff.txt" >&2
            status=1
        fi
    done
done
exit $status
