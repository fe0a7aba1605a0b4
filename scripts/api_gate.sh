#!/bin/sh
# End-to-end gate for the async simulation service: build a
# race-enabled agilepmd, start it, drive a burst of concurrent
# sessions of scenario files through POST /v1/scenarios?wait=1 with
# cmd/apiload (which fails on any failed request, a cache hit rate
# below the floor, or a cache-hit speedup below the floor), then shut
# the daemon down gracefully and check it drained and persisted its
# terminal job ledger.
#
# Tunables (environment):
#   APIGATE_PORT         listen port          (default 18097)
#   APIGATE_SESSIONS     concurrent sessions  (default 200)
#   APIGATE_PER_SESSION  requests per session (default 2)
#   APIGATE_LABEL        non-empty: record the bench lines into
#                        BENCH_api.json under this label
#   APIGATE_RACE         0 disables the race-enabled daemon build
set -eu

PORT="${APIGATE_PORT:-18097}"
SESSIONS="${APIGATE_SESSIONS:-200}"
PER="${APIGATE_PER_SESSION:-2}"
LABEL="${APIGATE_LABEL:-}"
RACE="${APIGATE_RACE:-1}"

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

if [ "$RACE" = "1" ]; then
    go build -race -o "$tmp/agilepmd" ./cmd/agilepmd
else
    go build -o "$tmp/agilepmd" ./cmd/agilepmd
fi
go build -o "$tmp/apiload" ./cmd/apiload

"$tmp/agilepmd" -addr "127.0.0.1:$PORT" -grace 60s -state "$tmp/state.json" \
    >"$tmp/daemon.log" 2>&1 &
pid=$!

# apiload polls /healthz itself; its exit code is the gate.
if ! "$tmp/apiload" -addr "http://127.0.0.1:$PORT" \
    -sessions "$SESSIONS" -per-session "$PER" \
    -max-failed 0 -min-hit-rate 0.05 -min-hit-speedup 100 >"$tmp/bench.txt"; then
    echo "api_gate: load run failed; daemon log tail:" >&2
    tail -20 "$tmp/daemon.log" >&2
    exit 1
fi

if [ -n "$LABEL" ]; then
    go run ./cmd/benchjson -label "$LABEL" -out BENCH_api.json <"$tmp/bench.txt"
fi

# Graceful shutdown: drain the queue, persist the terminal ledger,
# exit cleanly.
kill -TERM "$pid"
wait "$pid" || {
    echo "api_gate: daemon exited nonzero; log tail:" >&2
    tail -20 "$tmp/daemon.log" >&2
    exit 1
}
pid=""
if ! grep -q '"counters"' "$tmp/state.json"; then
    echo "api_gate: state file missing or malformed" >&2
    exit 1
fi
echo "api_gate: OK ($SESSIONS sessions x $PER requests, state persisted)"
