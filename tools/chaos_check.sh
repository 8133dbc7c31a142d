#!/usr/bin/env bash
# Chaos invariant check (CI): a campaign run under an injected fault plan —
# probabilistic cell throws, one permanently hung cell, one torn-write kill
# point — followed by retries and one resume, must produce a canonical
# store byte-identical to the same spec run fault-free, with the permanent
# failure listed in the quarantine sidecar.
#
#   tools/chaos_check.sh --bin build/sehc_campaign [--report-bin build/sehc_report] \
#       [--workdir DIR]
#
# Sequence:
#   1. chaos run, single-threaded (deterministic cell order):
#      - throw=0.12 transient throws (first attempt only; retries heal them)
#      - cell 3 hangs on every attempt -> watchdog timeout -> quarantined
#      - cell 9's store append is torn after 12 bytes -> process exits 17
#   2. assert: exit 17, quarantine sidecar names cell 3 with a timeout;
#      then tear the last row of both sidecars (metrics and quarantine)
#      mid-line, as a kill during their appends would leave them
#   3. (optional) degraded report over the crashed store + torn sidecars
#      must render a "Missing cells" section without throwing
#   4. resume run with only the transient throws -> completes, exit 0,
#      sidecar removed (the quarantined cell healed)
#   5. fault-free run of the same spec into a fresh store
#   6. cmp canonical outputs byte-for-byte
set -euo pipefail

BIN=""
REPORT_BIN=""
WORKDIR="chaos-check"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin)        BIN="$2"; shift 2 ;;
    --report-bin) REPORT_BIN="$2"; shift 2 ;;
    --workdir)    WORKDIR="$2"; shift 2 ;;
    *) echo "chaos_check: unknown option '$1'" >&2; exit 2 ;;
  esac
done
[[ -n "$BIN" ]] || { echo "chaos_check: --bin PATH is required" >&2; exit 2; }

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
STORE="$WORKDIR/chaos.csv"
CLEAN="$WORKDIR/clean.csv"

SPEC=(--spec paper-class-grid --seeds 2 --iters 5 --tasks 20 --machines 5)
TRANSIENT="seed=9;throw=0.12;throw-attempts=1"
CHAOS="$TRANSIENT;hang-cells=3;hang-attempts=all;torn-cell=9;torn-bytes=12"

echo "chaos_check: [1/6] chaos run (throws + hung cell 3 + torn write at cell 9)"
set +e
"$BIN" run "${SPEC[@]}" --store "$STORE" --threads 1 \
    --cell-retries 2 --cell-timeout 0.2 --retry-backoff-ms 10 \
    --fault-plan "$CHAOS" > "$WORKDIR/chaos_run.log" 2>&1
code=$?
set -e
if [[ $code -ne 17 ]]; then
  echo "chaos_check: FAIL: expected the torn write to kill the run with exit 17, got $code" >&2
  cat "$WORKDIR/chaos_run.log" >&2
  exit 1
fi

echo "chaos_check: [2/6] quarantine sidecar survived the kill"
SIDECAR="$STORE.failed.csv"
[[ -f "$SIDECAR" ]] || { echo "chaos_check: FAIL: no sidecar $SIDECAR" >&2; exit 1; }
grep -q '^3,' "$SIDECAR" || {
  echo "chaos_check: FAIL: hung cell 3 not quarantined:" >&2
  cat "$SIDECAR" >&2
  exit 1
}
grep -q 'deadline' "$SIDECAR" || {
  echo "chaos_check: FAIL: quarantine record does not mention the deadline" >&2
  cat "$SIDECAR" >&2
  exit 1
}
# Keep crash-time evidence: the resume run below heals the cell and deletes
# the live sidecar. CI uploads this copy as the artifact.
cp "$SIDECAR" "$WORKDIR/quarantine_at_crash.csv"

# Cuts a file's last row in half, as a writer killed mid-append leaves it.
tear_last_row() {
  local size last
  size=$(wc -c < "$1")
  last=$(tail -n 1 "$1" | wc -c)
  truncate -s $((size - last + last / 2)) "$1"
}
tear_last_row "$STORE.metrics.csv"
tear_last_row "$SIDECAR"

if [[ -n "$REPORT_BIN" ]]; then
  echo "chaos_check: [3/6] degraded report over the crashed store"
  "$REPORT_BIN" full "$STORE" --out "$WORKDIR/degraded_report.md" \
      > /dev/null
  grep -q '## Missing cells' "$WORKDIR/degraded_report.md" || {
    echo "chaos_check: FAIL: degraded report lacks the missing-cells section" >&2
    exit 1
  }
else
  echo "chaos_check: [3/6] skipped (no --report-bin)"
fi

echo "chaos_check: [4/6] resume under transient faults only"
"$BIN" run "${SPEC[@]}" --store "$STORE" --threads 1 \
    --cell-retries 2 --retry-backoff-ms 10 \
    --fault-plan "$TRANSIENT" --merged-out "$WORKDIR/chaos_table.csv" \
    > "$WORKDIR/resume_run.log" 2>&1
grep -q 'retried:' "$WORKDIR/resume_run.log" || {
  echo "chaos_check: FAIL: resume run reports no retried cells (transient faults not exercised)" >&2
  cat "$WORKDIR/resume_run.log" >&2
  exit 1
}
[[ ! -f "$SIDECAR" ]] || {
  echo "chaos_check: FAIL: clean resume should delete the sidecar" >&2
  exit 1
}
[[ ! -f "$STORE.tmp" ]] || {
  echo "chaos_check: FAIL: torn-tail recovery left $STORE.tmp behind" >&2
  exit 1
}

echo "chaos_check: [5/6] fault-free reference run"
"$BIN" run "${SPEC[@]}" --store "$CLEAN" --threads 1 \
    --merged-out "$WORKDIR/clean_table.csv" > "$WORKDIR/clean_run.log" 2>&1

echo "chaos_check: [6/6] canonical outputs must match byte-for-byte"
cmp "$WORKDIR/chaos_table.csv" "$WORKDIR/clean_table.csv" || {
  echo "chaos_check: FAIL: faulted-then-resumed campaign diverged from the fault-free run" >&2
  exit 1
}
echo "chaos_check: OK — faulted+resumed campaign is byte-identical to the fault-free run"
