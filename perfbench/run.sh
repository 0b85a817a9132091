#!/bin/sh
# Build msyn and the benchmark from source, then run it from the repo root.
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh steady --workload W --runs 10 [--seed0 N] [--trace 1]
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/msyn.exe ./perfbench/main.exe 1>&2
case "${1:-}" in
  steady) exec ./_build/default/perfbench/main.exe "$@" ;;
  *) exec ./_build/default/perfbench/main.exe run "$@" ;;
esac
