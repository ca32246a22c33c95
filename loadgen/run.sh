#!/usr/bin/env bash
# Build loadgen, run all five workloads — untraced for the end-to-end
# metrics, then traced for the per-layer ones — and collect every run as one
# shark-bench-v2 JSON line. Exits non-zero on any wrong answer.
#
#   SEED=1 RUNS=1 RUN_SECONDS=15 OUT=loadgen/target/loadgen/results.jsonl loadgen/run.sh
#
# Compare two result files with: loadgen compare <a.jsonl> <b.jsonl>
set -uo pipefail
cd "$(dirname "$0")/.."

SEED=${SEED:-1}
RUNS=${RUNS:-1}
RUN_SECONDS=${RUN_SECONDS:-15}
OUT=${OUT:-loadgen/target/loadgen/results.jsonl}

cargo build --release --offline --manifest-path loadgen/Cargo.toml || exit 2
BIN=${CARGO_TARGET_DIR:-loadgen/target}/release/loadgen
COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
mkdir -p "$(dirname "$OUT")"
: > "$OUT"

status=0
for workload in dashboard scan shuffle pressure ml_pipeline; do
  for trace in $(yes 0 | head -n "$RUNS") 1; do
    # The last line is the machine-readable result; it is in $OUT already.
    "$BIN" --workload "$workload" --seed "$SEED" --seconds "$RUN_SECONDS" \
      --trace "$trace" --out "$OUT" --commit "$COMMIT" | sed '$d' || status=1
  done
done
echo "results: $OUT (commit $COMMIT, nproc $(nproc), seed $SEED)"
exit $status
