#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the given
# arguments, from the root of the repository:
#   bash bench/ledger/run.sh --workload hot-loops --seed 1 --seconds 10 --trace 0
# Build output goes to _build/ and dune's shared cache is not used, so
# nothing is written outside the repository.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
