#!/usr/bin/env bash
# End-to-end smoke test for the HTTP serving layer (`rted serve`).
#
# Exercises the full acceptance scenario from a shell, the way an operator
# would: start the server on an ephemeral port, hit every endpoint family,
# prove that an over-deadline request comes back as a fast 504 (not a hang),
# then SIGTERM the server and assert a clean drain — exit code 0 and a
# drain confirmation in the log.  Every step is timeout-wrapped so a
# regression fails fast instead of stalling CI.
#
# Usage: PYTHONPATH=src scripts/serve_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# A small corpus plus a large adversarial pair for the deadline probe.
python - "$workdir" <<'EOF'
import sys
from pathlib import Path
from repro.datasets import random_tree
from repro.io import to_bracket

workdir = Path(sys.argv[1])
with open(workdir / "corpus.txt", "w") as fh:
    for i in range(24):
        fh.write(to_bracket(random_tree(20, rng=i)) + "\n")
big_a = to_bracket(random_tree(900, rng=5))
big_b = to_bracket(random_tree(880, rng=6))
(workdir / "big.json").write_text(
    '{"tree_a": "%s", "tree_b": "%s", "deadline": 0.1}' % (big_a, big_b)
)
EOF

# Start the server on an ephemeral port; the readiness line on stderr
# carries the bound port.
python -m repro.cli serve "@$workdir/corpus.txt" --port 0 \
    2> "$workdir/server.log" &
server_pid=$!

port=""
for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$workdir/server.log")
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server died during startup: $(cat "$workdir/server.log")"
    sleep 0.1
done
[ -n "$port" ] || fail "server never reported its port"
base="http://127.0.0.1:$port"
echo "serve_smoke: server up on $base"

# Liveness + readiness.
timeout 10 curl -sf "$base/healthz" | grep -q '"alive"' || fail "/healthz"
timeout 10 curl -sf "$base/readyz" | grep -q '"ready"' || fail "/readyz"

# Distance must match the library answer for the fixture pair.
distance=$(timeout 30 curl -sf -X POST "$base/distance" \
    -d '{"tree_a": "{a{b}{c}}", "tree_b": "{a{c}{d}}"}')
echo "$distance" | grep -q '"distance": 2.0' || fail "/distance gave: $distance"

# With the compiled kernel that small pair ran on the event loop, and
# /stats counts it.  (Without a C compiler every pair takes the executor.)
if python -c 'import sys; from repro.algorithms import native_available; sys.exit(not native_available())'; then
    timeout 10 curl -sf "$base/stats" | grep -Eq '"served_inline": [1-9]' \
        || fail "/stats served_inline after a small /distance: $(curl -s "$base/stats")"
fi

# A malformed tree is the client's fault: 400 with the parse error, never 500.
status=$(timeout 30 curl -s -o "$workdir/malformed.json" -w '%{http_code}' \
    -X POST "$base/distance" -d '{"tree_a": "{a{b}x}", "tree_b": "{a}"}')
[ "$status" = "400" ] || fail "malformed /distance gave $status, wanted 400"
grep -q "expected '}' at position 5" "$workdir/malformed.json" \
    || fail "malformed /distance body: $(cat "$workdir/malformed.json")"

# JSON nested past the recursion limit is a malformed body: 400, not 500.
python -c 'print("{\"tree_a\": " + "[" * 100000 + "]" * 100000 + ", \"tree_b\": \"{a}\"}")' \
    > "$workdir/nested.json"
status=$(timeout 30 curl -s -o "$workdir/nested_out.json" -w '%{http_code}' \
    -X POST "$base/distance" --data-binary "@$workdir/nested.json")
[ "$status" = "400" ] || fail "nested-JSON /distance gave $status, wanted 400"
grep -q "invalid JSON body" "$workdir/nested_out.json" \
    || fail "nested-JSON /distance body: $(cat "$workdir/nested_out.json")"

# kNN against the registered corpus.
knn=$(timeout 30 curl -sf -X POST "$base/knn" -d '{"query": "{a{b}{c}}", "k": 3}')
echo "$knn" | grep -q '"matches"' || fail "/knn gave: $knn"

# Over-deadline request: must return 504 promptly, not hang.
start=$(date +%s)
status=$(timeout 30 curl -s -o "$workdir/timeout.json" -w '%{http_code}' \
    -X POST "$base/distance" --data-binary "@$workdir/big.json")
elapsed=$(( $(date +%s) - start ))
[ "$status" = "504" ] || fail "over-deadline request gave $status, wanted 504"
[ "$elapsed" -le 10 ] || fail "over-deadline request took ${elapsed}s"
grep -q '"timeout": true' "$workdir/timeout.json" || fail "504 body lacks timeout marker"
echo "serve_smoke: over-deadline request timed out cleanly in ${elapsed}s"

# The server must stay healthy after a timeout.
timeout 10 curl -sf "$base/readyz" > /dev/null || fail "/readyz after timeout"

# Graceful drain: SIGTERM, clean exit 0.
kill -TERM "$server_pid"
rc=0
timeout 30 tail --pid="$server_pid" -f /dev/null || true
wait "$server_pid" || rc=$?
[ "$rc" = "0" ] || fail "server exited $rc after SIGTERM (log: $(cat "$workdir/server.log"))"
grep -q "drained" "$workdir/server.log" || fail "no drain confirmation in server log"
server_pid=""

echo "serve_smoke: ok"
