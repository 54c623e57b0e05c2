#!/usr/bin/env bash
# End-to-end smoke of the resident daemon: a real boot on loopback
# driven by the scripted client — cold pass, warm pass (rows must stay
# byte-identical to the offline reference and the warm pass must report
# cache hits), stats endpoint, daemon killed on exit either way.
set -euo pipefail

cd "$(dirname "$0")/.."

# shellcheck source=scripts/binaries.sh
source scripts/binaries.sh

cargo build --release --package memx-serve --package memx-bench --bins

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve-smoke: booting daemon"
"./target/release/$SERVE_BINARY" --addr 127.0.0.1:0 \
    --cache-dir "$workdir/cache" > "$workdir/serve.log" &
serve_pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^memx-serve listening on //p' "$workdir/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$workdir/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: daemon never reported its address"; exit 1; }
echo "serve-smoke: daemon at $addr"

"./target/release/$SERVE_CLIENT" demo > "$workdir/request.json"
"./target/release/$SERVE_CLIENT" offline < "$workdir/request.json" > "$workdir/offline.rows"

"./target/release/$SERVE_CLIENT" evaluate "$addr" \
    < "$workdir/request.json" > "$workdir/cold.rows" 2> "$workdir/cold.trailers"
diff -u "$workdir/offline.rows" "$workdir/cold.rows" \
    || { echo "serve-smoke: cold rows differ from offline reference"; exit 1; }
echo "serve-smoke: cold rows byte-identical ($(wc -l < "$workdir/cold.rows") rows)"

"./target/release/$SERVE_CLIENT" evaluate "$addr" \
    < "$workdir/request.json" > "$workdir/warm.rows" 2> "$workdir/warm.trailers"
diff -u "$workdir/offline.rows" "$workdir/warm.rows" \
    || { echo "serve-smoke: warm rows differ from offline reference"; exit 1; }

warm_hits=$(sed -n 's/^x-memx-cache-[a-z]*: \([0-9]*\) hits.*/\1/p' \
    "$workdir/warm.trailers" | awk '{ s += $1 } END { print s + 0 }')
if [ "$warm_hits" -eq 0 ]; then
    echo "serve-smoke: warm pass reported zero cache hits"
    cat "$workdir/warm.trailers"
    exit 1
fi
echo "serve-smoke: warm rows byte-identical, $warm_hits cache hits"

# The request counter is bumped just after the response finishes on the
# wire; give the handler a beat before reading it.
sleep 0.2
stats=$("./target/release/$SERVE_CLIENT" stats "$addr")
echo "serve-smoke: stats $stats"
grep -q '"requests":2' <<<"$stats" \
    || { echo "serve-smoke: stats did not count 2 requests"; exit 1; }

echo "serve-smoke: ok"
