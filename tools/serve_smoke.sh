#!/usr/bin/env bash
# End-to-end smoke test for the remote serving front-end, run as a CI
# stage (tools/ci.sh): starts `vsim serve` on a loopback socket with an
# OS-assigned port, round-trips k-NN / range / invariant queries through
# `vsim remote-query`, scrapes the observability surface with `vsim
# stats` (the metrics must attribute the queries just served), checks
# the span-tracing surface (every query's wire-propagated trace id is
# echoed and printed; `vsim stats --trace-export` writes Chrome
# trace-event JSON nesting the full accept-to-flush pipeline, validated
# against the schema with python3; the --slow-query-ms threshold
# surfaces as a gauge), exercises
# the usage-error exit-code contract (tools/README.md: 0 success, 1
# runtime failure, 2 usage error), and checks the server drains and
# exits cleanly on SIGTERM. The main pass also asserts the epoll
# reactor's vsim_net_* series appear in the scrape (the server's one
# transport, docs/PROTOCOL.md §11). A final disk-backed pass (`--store`)
# serves refinement through the sharded buffer pool and asserts the
# scrape carries non-zero hot- and cold-tier vsim_cache_pool_* hits.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: $VSIM_BUILD_ROOT/build)
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-${VSIM_BUILD_ROOT:-.}/build}"
VSIM="$BUILD_DIR/tools/vsim"
if [ ! -x "$VSIM" ]; then
  echo "serve_smoke: $VSIM not built"
  exit 1
fi

TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail=0
check() {  # check <description> <expected-exit> <cmd...>
  local desc="$1" expected="$2"; shift 2
  "$@" > "$TMP/out" 2>&1
  local got=$?
  if [ "$got" -ne "$expected" ]; then
    echo "FAIL: $desc (exit $got, want $expected)"
    sed 's/^/  | /' "$TMP/out" | head -5
    fail=1
  else
    echo "ok: $desc"
  fi
}

# --- main pass ---------------------------------------------------------
rm -f "$TMP/port"
"$VSIM" serve --dataset car --count 24 --port 0 --port-file "$TMP/port" \
    --duration-s 60 --threads 2 --slow-query-ms 250 --reactor-threads 2 \
    > "$TMP/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$TMP/port" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_smoke: server exited before publishing its port"
    cat "$TMP/serve.log"
    exit 1
  fi
  sleep 0.1
done
PORT=$(cat "$TMP/port")
if [ -z "$PORT" ]; then
  echo "serve_smoke: no port published"
  exit 1
fi
echo "server up on port $PORT (pid $SERVER_PID)"

# --- remote queries over the wire --------------------------------------
check "k-NN by stored id" 0 \
    "$VSIM" remote-query --port "$PORT" --id 3 --k 5
check "range query" 0 \
    "$VSIM" remote-query --port "$PORT" --id 0 --kind range --eps 100
check "invariant k-NN" 0 \
    "$VSIM" remote-query --port "$PORT" --id 1 --k 3 --kind invariant-knn
check "scan strategy agrees on exit" 0 \
    "$VSIM" remote-query --port "$PORT" --id 3 --k 5 --strategy scan

# --- stats scrape -------------------------------------------------------
check "stats scrape succeeds" 0 \
    "$VSIM" stats --port "$PORT" --traces 8
# The scrape must attribute the queries above: a non-zero completed
# counter and at least one flight-recorder trace.
"$VSIM" stats --port "$PORT" --traces 8 > "$TMP/stats.out" 2>&1
if grep -Eq '^vsim_requests_completed_total [1-9]' "$TMP/stats.out"; then
  echo "ok: scrape shows non-zero vsim_requests_completed_total"
else
  echo "FAIL: no non-zero vsim_requests_completed_total"
  sed 's/^/  | /' "$TMP/stats.out" | head -10
  fail=1
fi
if grep -q 'trace(s), newest first' "$TMP/stats.out"; then
  echo "ok: scrape returned flight-recorder traces"
else
  echo "FAIL: no traces in the scrape output"
  fail=1
fi
# The reactor's own series must flow through the shared collector.
if grep -Eq '^vsim_net_reactor_loop_iterations_total [1-9]' \
     "$TMP/stats.out" &&
   grep -q '^vsim_net_open_connections ' "$TMP/stats.out"; then
  echo "ok: scrape shows reactor vsim_net_* series"
else
  echo "FAIL: reactor vsim_net_* series missing from the scrape"
  grep 'vsim_net' "$TMP/stats.out" | sed 's/^/  | /' | head -10
  fail=1
fi

# --- span tracing over the wire (docs/OBSERVABILITY.md "Tracing") -------
# Every remote query is traced: the client mints a 16-byte trace id
# and the server echoes it on the final response chunk, so the CLI
# prints it without "(not echoed by server)".
"$VSIM" remote-query --port "$PORT" --id 2 --k 4 > "$TMP/traced.out" 2>&1
if grep -Eq '^trace [0-9a-f]{32}$' "$TMP/traced.out"; then
  echo "ok: remote query prints the server-echoed trace id"
else
  echo "FAIL: no echoed trace id in remote-query output"
  sed 's/^/  | /' "$TMP/traced.out" | tail -3
  fail=1
fi
# The --slow-query-ms knob surfaces as a gauge in the scrape.
if grep -q '^vsim_flight_recorder_slow_threshold_seconds 0.25' \
     "$TMP/stats.out"; then
  echo "ok: scrape shows the slow-query threshold gauge"
else
  echo "FAIL: vsim_flight_recorder_slow_threshold_seconds missing/wrong"
  fail=1
fi
# The Perfetto timeline export must be well-formed Chrome trace-event
# JSON carrying the full pipeline -- net spans (accept/decode/encode/
# flush) and service spans (request/queue/filter/refine) -- for the
# queries just served.
check "stats --trace-export writes a timeline" 0 \
    "$VSIM" stats --port "$PORT" --trace-export "$TMP/trace.json"
if python3 - "$TMP/trace.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "no trace events"
for e in events:
    assert e["ph"] in ("M", "X"), f"unexpected phase: {e}"
    assert isinstance(e["pid"], int) and isinstance(e["tid"], int), e
    assert isinstance(e["name"], str) and e["name"], e
    if e["ph"] == "X":
        assert float(e["ts"]) >= 0 and float(e["dur"]) >= 0, e
names = {e["name"] for e in events if e["ph"] == "X"}
missing = {"request", "queue", "filter", "refine",
           "accept", "decode", "encode", "flush"} - names
assert not missing, f"missing spans: {sorted(missing)}"
PYEOF
then
  echo "ok: timeline export is valid and nests the full pipeline"
else
  echo "FAIL: timeline export schema check"
  head -c 300 "$TMP/trace.json" | sed 's/^/  | /'
  fail=1
fi

# --- runtime failures exit 1 --------------------------------------------
check "out-of-range stored id is a runtime failure" 1 \
    "$VSIM" remote-query --port "$PORT" --id 99999

# --- graceful shutdown: SIGTERM drains and exits 0 ----------------------
kill -TERM "$SERVER_PID"
SERVER_EXIT=1
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"
    SERVER_EXIT=$?
    break
  fi
  sleep 0.1
done
if [ "$SERVER_EXIT" -ne 0 ]; then
  echo "FAIL: server did not exit cleanly on SIGTERM (exit $SERVER_EXIT)"
  cat "$TMP/serve.log"
  fail=1
else
  echo "ok: SIGTERM drains and exits 0"
fi
SERVER_PID=""

# --- client/usage errors ----------------------------------------------
check "connection refused is a runtime failure" 1 \
    "$VSIM" remote-query --port 1 --id 0
check "missing --port is a usage error" 2 \
    "$VSIM" remote-query --id 0
check "bad --kind is a usage error" 2 \
    "$VSIM" remote-query --port 1 --id 0 --kind nearest
check "bad --strategy is a usage error" 2 \
    "$VSIM" remote-query --port 1 --id 0 --strategy xtree
check "serve without a data source is a usage error" 2 \
    "$VSIM" serve
check "--transport is an unknown flag (usage error)" 2 \
    "$VSIM" serve --dataset car --count 4 --transport epoll
check "bad --reactor-threads is a usage error" 2 \
    "$VSIM" serve --dataset car --count 4 --reactor-threads 0
check "stats without --port is a usage error" 2 \
    "$VSIM" stats

# --- disk-backed serve: the buffer pool behind the wire ---------------
# Start a second server with --store: refinement now fetches candidates
# through the sharded buffer pool, and the stats scrape must carry the
# vsim_cache_pool_* series with non-zero hot- and cold-tier hits (cold
# pages earn hotness on repeat hits, so a few queries populate both).
"$VSIM" serve --dataset car --count 24 --port 0 --port-file "$TMP/port2" \
    --duration-s 60 --threads 2 --cache-mb 0 \
    --store "$TMP/smoke.vsstore" --pool-pages 8 \
    > "$TMP/serve_disk.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -s "$TMP/port2" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_smoke: disk-backed server exited before publishing its port"
    cat "$TMP/serve_disk.log"
    exit 1
  fi
  sleep 0.1
done
PORT=$(cat "$TMP/port2")
echo "disk-backed server up on port $PORT (pid $SERVER_PID)"

for id in 0 1 2 3 0 1 2 3; do
  check "disk-backed k-NN (id $id)" 0 \
      "$VSIM" remote-query --port "$PORT" --id "$id" --k 5
done
"$VSIM" stats --port "$PORT" > "$TMP/stats_disk.out" 2>&1
if grep -Eq 'vsim_cache_pool_hits_total\{tier="hot"\} [1-9]' \
     "$TMP/stats_disk.out" &&
   grep -Eq 'vsim_cache_pool_hits_total\{tier="cold"\} [1-9]' \
     "$TMP/stats_disk.out"; then
  echo "ok: scrape shows non-zero hot- and cold-tier pool hits"
else
  echo "FAIL: no non-zero vsim_cache_pool_hits_total per tier in the scrape"
  grep 'vsim_cache_pool' "$TMP/stats_disk.out" | sed 's/^/  | /' | head -12
  fail=1
fi

kill -TERM "$SERVER_PID"
SERVER_EXIT=1
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"
    SERVER_EXIT=$?
    break
  fi
  sleep 0.1
done
if [ "$SERVER_EXIT" -ne 0 ]; then
  echo "FAIL: disk-backed server did not exit cleanly (exit $SERVER_EXIT)"
  cat "$TMP/serve_disk.log"
  fail=1
else
  echo "ok: disk-backed server drains and exits 0"
fi
SERVER_PID=""

if [ "$fail" -ne 0 ]; then
  echo "serve_smoke: FAILED"
  exit 1
fi
echo "serve_smoke: remote round trips, disk-backed pool scrape, exit-code contract and graceful shutdown OK"
