#!/usr/bin/env bash
# Serving smoke check (CI + the serve_smoke ctest): start sehc_serve on a
# private socket, drive it with a short fixed-seed loadgen run, and assert
# the service-level invariants that matter:
#
#   1. the loadgen run completes with zero protocol errors and zero
#      status=error replies (loadgen exits nonzero otherwise);
#   2. p99 latency stays under a deliberately generous bound — this catches
#      a wedged solver thread or lost wakeup, not performance regressions
#      (sehc_loadgen --assert-p99-ms);
#   3. a second identical run is served (almost) entirely from the response
#      cache: cache_hit_rate >= 0.95 (sehc_loadgen --assert-hit-rate), and
#      the op=metrics snapshot recorded the runs: solve spans, request
#      latencies and the kernel/<backend> gauge, while the stats count no
#      cache-key hash collision in either cache (sehc_loadgen
#      --assert-metrics; the snapshot is also saved for CI);
#   4. SIGTERM drains gracefully: the daemon exits 0 and its final stats
#      line says "drained".
#
#   tools/serve_check.sh --serve-bin build/sehc_serve \
#       --loadgen-bin build/sehc_loadgen [--workdir DIR] [--p99-ms BOUND]
set -euo pipefail

SERVE_BIN=""
LOADGEN_BIN=""
WORKDIR="serve-check"
P99_MS=5000
while [[ $# -gt 0 ]]; do
  case "$1" in
    --serve-bin)   SERVE_BIN="$2"; shift 2 ;;
    --loadgen-bin) LOADGEN_BIN="$2"; shift 2 ;;
    --workdir)     WORKDIR="$2"; shift 2 ;;
    --p99-ms)      P99_MS="$2"; shift 2 ;;
    *) echo "serve_check: unknown option '$1'" >&2; exit 2 ;;
  esac
done
[[ -n "$SERVE_BIN" && -n "$LOADGEN_BIN" ]] || {
  echo "serve_check: --serve-bin and --loadgen-bin are required" >&2; exit 2;
}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
# Unix socket paths are length-limited (sockaddr_un); use a short /tmp name
# instead of a possibly deep build-tree path.
SOCK="$(mktemp -u /tmp/sehc_serve_check.XXXXXX.sock)"
SERVER_LOG="$WORKDIR/serve.log"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$SOCK"
}
trap cleanup EXIT

echo "serve_check: [1/4] starting sehc_serve on $SOCK"
"$SERVE_BIN" --socket "$SOCK" --threads 2 --queue 32 \
    > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "serve_check: FAIL: server died during startup" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  }
  sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "serve_check: FAIL: socket never appeared" >&2; exit 1; }

LOADGEN=("$LOADGEN_BIN" --socket "$SOCK" --requests 120 --rate 60 \
    --connections 4 --engine SE --budget steps:25 --workloads 6 \
    --tasks 30 --machines 6 --seed 7)

echo "serve_check: [2/4] cold loadgen run (fixed seed, low rate)"
"${LOADGEN[@]}" --out "$WORKDIR/BENCH_serve.json" --assert-p99-ms "$P99_MS" \
    > "$WORKDIR/loadgen_cold.log" 2>&1 || {
  echo "serve_check: FAIL: cold loadgen run failed (protocol errors, error replies or client p99 not under ${P99_MS}ms)" >&2
  cat "$WORKDIR/loadgen_cold.log" >&2
  cat "$SERVER_LOG" >&2
  exit 1
}
grep 'assert-p99-ms' "$WORKDIR/loadgen_cold.log"

echo "serve_check: [3/4] warm rerun must hit the response cache; its metrics snapshot must have recorded the runs"
"${LOADGEN[@]}" --out "$WORKDIR/BENCH_serve_warm.json" \
    --metrics-out "$WORKDIR/serve_metrics.snapshot" --assert-hit-rate 0.95 \
    --assert-metrics > "$WORKDIR/loadgen_warm.log" 2>&1 || {
  echo "serve_check: FAIL: warm loadgen run failed (protocol errors, error replies, cache_hit_rate under 0.95, a metrics snapshot without solve spans, request latencies or a kernel/<backend> gauge, or a cache-key hash collision)" >&2
  cat "$WORKDIR/loadgen_warm.log" >&2
  exit 1
}
grep -e 'assert-hit-rate' -e 'assert-metrics' "$WORKDIR/loadgen_warm.log"

echo "serve_check: [4/4] SIGTERM must drain gracefully"
kill -TERM "$SERVER_PID"
code=0
wait "$SERVER_PID" || code=$?
if [[ $code -ne 0 ]]; then
  echo "serve_check: FAIL: server exited $code after SIGTERM" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
grep -q 'drained' "$SERVER_LOG" || {
  echo "serve_check: FAIL: server log has no drained-stats line" >&2
  cat "$SERVER_LOG" >&2
  exit 1
}
echo "serve_check: OK — zero protocol errors, p99 bounded, cache warm, drain clean"
