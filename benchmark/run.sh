#!/usr/bin/env bash
# One command: build offline, run the four workloads untraced (end-to-end
# metrics) and then traced (per-layer metrics), print every metric by name
# with its unit, and exit non-zero if any correctness check or operation
# failed. Result files land in benchmark/out/.
#
#   benchmark/run.sh            # seed 11, BENCHMARK.json's window
#   SEED=12 WINDOW=15 benchmark/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=${SEED:-11}
WINDOW=${WINDOW:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cargo build --release --offline --manifest-path benchmark/Cargo.toml

status=0
for trace in 0 1; do
  for w in $WORKLOADS; do
    echo "== $w (trace $trace, seed $SEED, ${WINDOW}s) =="
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed "$SEED" --seconds "$WINDOW" --trace "$trace" 2>/dev/null || status=1
  done
done
if [ "$status" -ne 0 ]; then
  echo "FAILED: a run reported a failed check or a failed operation" >&2
fi
exit "$status"
