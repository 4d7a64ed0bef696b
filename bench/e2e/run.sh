#!/usr/bin/env bash
# Build the lcp binary and the benchmark harness from source, then run
# the harness with the given arguments. Run it from the repository root:
#
#   bash bench/e2e/run.sh --workload sweep-n8 --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error, so the harness's last line of
# standard output stays its result object. A failed build exits non-zero
# without printing a result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet bin/main.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
