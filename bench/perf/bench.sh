#!/bin/sh
# Build clouds_perf from source in this checkout, then run its
# one-workload form:
#
#   bash bench/perf/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the result
# object.  The dune cache is off so that nothing is written outside the
# checkout.
set -eu
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . bench/perf/clouds_perf.exe 1>&2
exec ./_build/default/bench/perf/clouds_perf.exe bench "$@"
