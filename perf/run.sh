#!/usr/bin/env bash
# Benchmark entry point, run from the root of a source checkout:
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
# Builds perf/main.exe from source (dune's shared cache off, so the
# build writes only under _build/), then runs it. Fails, printing no
# result, when the checkout does not hold the libraries it needs.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . --display quiet perf/main.exe >&2
exec ./_build/default/perf/main.exe run "$@"
