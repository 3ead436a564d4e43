#!/usr/bin/env bash
# Build flowbench and the stencilflow CLI from this checkout's sources,
# then run flowbench with the given arguments from the checkout root:
#
#   bash bench/flow/run.sh --workload chain-sim --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/flow/flowbench.exe bin/main.exe 1>&2
exec ./_build/default/bench/flow/flowbench.exe "$@"
