#!/usr/bin/env bash
# Regenerates the committed report goldens that the report_golden_cmp and
# report_golden_equal_evals_cmp tests and CI byte-compare against:
#   tests/golden/paper_small_report.md        SE and GA under step budgets
#   tests/golden/equal_evals_small_report.md  all six searchers under one
#                                             evaluator-trial budget
# Run it (from the repo root, with a built tree in ./build, or pass the
# build directory) after an INTENTIONAL change to the report renderer or to
# the campaign cell computation, and commit the diff together with the
# change that caused it.
set -euo pipefail
cd "$(dirname "$0")/.."
BIN="${1:-./build}"
STORE="$(mktemp -t sehc_report_golden_XXXX.csv)"
trap 'rm -f "$STORE" "$STORE.metrics.csv"' EXIT
mkdir -p tests/golden

# render SPEC_ARGS... GOLDEN: one campaign into a fresh store, then its report.
render() {
  local golden="${*: -1}"
  rm -f "$STORE" "$STORE.metrics.csv"
  "$BIN/sehc_campaign" run "${@:1:$#-1}" --tasks 20 --machines 4 \
      --curve-points 6 --threads 2 --fresh --store "$STORE"
  "$BIN/sehc_report" full --out "$golden" "$STORE"
  echo "updated $golden"
}

render --spec paper-class-grid --iters 6 --seeds 2 \
    tests/golden/paper_small_report.md
render --spec equal-evals-grid --evals 1500 --seeds 2 \
    tests/golden/equal_evals_small_report.md
