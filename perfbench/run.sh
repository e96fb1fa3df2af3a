#!/bin/sh
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, e.g.
#   sh perfbench/run.sh --workload dtw-query --seed 1 --seconds 20 --trace 0
# Run it from the root of the checkout.  Build output goes to stderr so the
# last line of stdout stays the result object.
# The shared dune cache is off so the build writes only inside the
# checkout.
set -e
if command -v dune >/dev/null 2>&1; then DUNE=dune; else DUNE="opam exec -- dune"; fi
DUNE_CACHE=disabled $DUNE build --root . --display quiet ./perfbench/workloads/main.exe 1>&2
exec ./_build/default/perfbench/workloads/main.exe "$@"
