#!/usr/bin/env bash
# Record one set of runs: every workload untraced on seeds 1..10, then
# traced once on seed 1, appended as JSON lines to the file given.
#
#   bash bench/flow/run_set.sh bench/flow/results/set-a.jsonl [SECONDS]
#
# Compare two sets with:
#   bash bench/flow/run.sh --compare SET_A SET_B
set -euo pipefail
out=$(realpath -m "$1")
seconds=${2:-20}
cd "$(dirname "$0")/../.."
for w in chain-sim hdiff-sim pdes-2dev serve-dse; do
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    bash bench/flow/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
      --out "$out" | tail -n 1
  done
  bash bench/flow/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    --out "$out" | tail -n 1 | cut -c1-200
done
